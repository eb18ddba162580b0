// Minimal leveled logging.
//
// The library is quiet by default (kWarn); tests and benches raise verbosity
// when diagnosing. Log lines go to stderr so bench table output on stdout
// stays machine-parseable.
#pragma once

#include <sstream>
#include <string_view>

namespace twochains {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global threshold; messages below it are discarded.
void SetLogLevel(LogLevel level) noexcept;
LogLevel GetLogLevel() noexcept;

namespace detail {

/// Builds one log line in a stream and emits it on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, std::string_view file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace detail
}  // namespace twochains

#define TC_DEBUG ::twochains::detail::LogMessage(::twochains::LogLevel::kDebug, __FILE__, __LINE__)
#define TC_INFO  ::twochains::detail::LogMessage(::twochains::LogLevel::kInfo, __FILE__, __LINE__)
#define TC_WARN  ::twochains::detail::LogMessage(::twochains::LogLevel::kWarn, __FILE__, __LINE__)
#define TC_ERROR ::twochains::detail::LogMessage(::twochains::LogLevel::kError, __FILE__, __LINE__)
