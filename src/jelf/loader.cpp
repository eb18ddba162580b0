#include "jelf/loader.hpp"

#include <span>

#include "common/strfmt.hpp"
#include "jamvm/verifier.hpp"

namespace twochains::jelf {

Status ValidateImageLayout(const LinkedImage& image) {
  // Every bound below is checked with subtractions against already-proven
  // quantities, so attacker-controlled offsets cannot wrap the arithmetic.
  const std::uint64_t text_size = image.text.size();
  if (image.rodata_offset < text_size) {
    return InvalidArgument(StrFormat(
        "image '%s': rodata_offset %llu overlaps text (%llu B)",
        image.name.c_str(),
        static_cast<unsigned long long>(image.rodata_offset),
        static_cast<unsigned long long>(text_size)));
  }
  if (image.got_offset < image.rodata_offset ||
      image.got_offset - image.rodata_offset < image.rodata.size()) {
    return InvalidArgument(StrFormat(
        "image '%s': rodata (%llu B at %llu) overlaps the GOT at %llu",
        image.name.c_str(),
        static_cast<unsigned long long>(image.rodata.size()),
        static_cast<unsigned long long>(image.rodata_offset),
        static_cast<unsigned long long>(image.got_offset)));
  }
  const std::uint64_t got_bytes = 8ull * image.got_slot_count();
  if (image.data_offset < image.got_offset ||
      image.data_offset - image.got_offset < got_bytes) {
    return InvalidArgument(StrFormat(
        "image '%s': GOT (%llu B at %llu) overlaps data at %llu",
        image.name.c_str(), static_cast<unsigned long long>(got_bytes),
        static_cast<unsigned long long>(image.got_offset),
        static_cast<unsigned long long>(image.data_offset)));
  }
  if (image.total_size < image.data_offset ||
      image.total_size - image.data_offset < image.data.size() ||
      image.total_size - image.data_offset - image.data.size() <
          image.data_zero_fill) {
    return InvalidArgument(StrFormat(
        "image '%s': data (%llu+%llu B at %llu) exceeds total_size %llu",
        image.name.c_str(),
        static_cast<unsigned long long>(image.data.size()),
        static_cast<unsigned long long>(image.data_zero_fill),
        static_cast<unsigned long long>(image.data_offset),
        static_cast<unsigned long long>(image.total_size)));
  }
  for (const auto& [name, entry] : image.exports) {
    if (entry.offset >= image.total_size) {
      return InvalidArgument(StrFormat(
          "image '%s': export '%s' at %llu is outside the image",
          image.name.c_str(), name.c_str(),
          static_cast<unsigned long long>(entry.offset)));
    }
  }
  for (const LoadFixup& fixup : image.fixups) {
    if (fixup.image_offset > image.total_size ||
        image.total_size - fixup.image_offset < 8) {
      return InvalidArgument(StrFormat(
          "image '%s': fixup slot at %llu is outside the image",
          image.name.c_str(),
          static_cast<unsigned long long>(fixup.image_offset)));
    }
    if (fixup.internal && fixup.target_offset >= image.total_size) {
      return InvalidArgument(StrFormat(
          "image '%s': internal fixup target %llu is outside the image",
          image.name.c_str(),
          static_cast<unsigned long long>(fixup.target_offset)));
    }
  }
  return Status::Ok();
}

Status HostNamespace::Define(const std::string& name, std::uint64_t value,
                             bool allow_redefine) {
  const auto it = values_.find(name);
  if (it != values_.end()) {
    if (!allow_redefine) {
      return AlreadyExists(StrFormat("symbol '%s'", name.c_str()));
    }
    it->second = value;
    return Status::Ok();
  }
  values_.emplace(name, value);
  return Status::Ok();
}

StatusOr<std::uint64_t> HostNamespace::Lookup(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return NotFound(StrFormat("unresolved symbol '%s'", name.c_str()));
  }
  return it->second;
}

Status HostNamespace::Remove(const std::string& name) {
  if (values_.erase(name) == 0) {
    return NotFound(StrFormat("symbol '%s'", name.c_str()));
  }
  return Status::Ok();
}

StatusOr<LoadedLibrary> LoadLibrary(mem::HostMemory& memory,
                                    const LinkedImage& image,
                                    HostNamespace& ns,
                                    const LoadOptions& options) {
  if (options.enforce_section_permissions && !image.page_aligned) {
    return FailedPrecondition(
        "section permissions require a page-aligned image "
        "(link with page_align_sections)");
  }
  TC_RETURN_IF_ERROR(ValidateImageLayout(image));
  if (options.verify_code && !image.text.empty()) {
    vm::VerifyLimits limits;
    limits.got_slots = image.got_slot_count();
    // Libraries may lea anywhere in their own image (rodata, GOT, data).
    limits.rodata_bytes = image.total_size - image.text.size();
    limits.fixed_got_offset = static_cast<std::int64_t>(image.got_offset);
    Status verified = vm::VerifyCode(image.text, limits);
    if (!verified.ok()) {
      return Status(verified.code(),
                    StrFormat("library '%s' failed verification: %s",
                              image.name.c_str(),
                              verified.message().c_str()));
    }
  }

  // Allocate and populate, writable during relocation.
  TC_ASSIGN_OR_RETURN(
      const mem::VirtAddr base,
      memory.Allocate(image.total_size, mem::kPageSize, mem::Perm::kRW,
                      "lib:" + image.name));
  TC_RETURN_IF_ERROR(memory.Write(base, image.text));
  if (!image.rodata.empty()) {
    TC_RETURN_IF_ERROR(memory.Write(base + image.rodata_offset, image.rodata));
  }
  if (!image.data.empty()) {
    TC_RETURN_IF_ERROR(memory.Write(base + image.data_offset, image.data));
  }
  TC_RETURN_IF_ERROR(memory.Zero(base + image.data_offset + image.data.size(),
                                 image.data_zero_fill));

  LoadedLibrary lib;
  lib.name = image.name;
  lib.base = base;
  lib.size = image.total_size;
  lib.got_addr = base + image.got_offset;
  lib.got_slots = image.got_slot_count();
  lib.got_symbols = image.got_symbols;

  // Bind-now GOT resolution. Note: a library may reference its own exports
  // through the GOT; make them visible first so self-references resolve,
  // but keep a rollback list in case binding fails midway.
  std::vector<std::string> defined_now;
  auto rollback = [&] {
    for (const auto& name : defined_now) (void)ns.Remove(name);
    (void)memory.Free(base);
  };
  for (const auto& [name, entry] : image.exports) {
    const mem::VirtAddr addr = base + entry.offset;
    Status st = ns.Define(name, addr, options.allow_export_override);
    if (!st.ok()) {
      rollback();
      return st;
    }
    defined_now.push_back(name);
    lib.exports.emplace(name, addr);
  }

  for (std::uint32_t slot = 0; slot < lib.got_slots; ++slot) {
    auto value = ns.Lookup(image.got_symbols[slot]);
    if (!value.ok()) {
      rollback();
      return Status(value.status().code(),
                    StrFormat("binding %s: %s", image.name.c_str(),
                              value.status().message().c_str()));
    }
    Status st = memory.StoreU64(lib.got_addr + 8ull * slot, *value);
    if (!st.ok()) {
      rollback();
      return st;
    }
  }

  for (const auto& fixup : image.fixups) {
    std::uint64_t value;
    if (fixup.internal) {
      value = base + fixup.target_offset;
    } else {
      auto resolved = ns.Lookup(fixup.symbol);
      if (!resolved.ok()) {
        rollback();
        return resolved.status();
      }
      value = *resolved + static_cast<std::uint64_t>(fixup.addend);
    }
    Status st = memory.StoreU64(base + fixup.image_offset, value);
    if (!st.ok()) {
      rollback();
      return st;
    }
  }

  // Seal section permissions: text RX, rodata R, GOT RW|R, data RW. A
  // failure here rolls back like the binding failures above — a library
  // that could not be sealed must not stay resolvable half-sealed. (Exports
  // that *overrode* earlier definitions cannot restore the old value; the
  // override option is a deliberate hot-swap escape hatch.)
  if (options.enforce_section_permissions) {
    const auto seal = [&](std::uint64_t off, std::uint64_t len,
                          mem::Perm perm) -> Status {
      if (len == 0) return Status::Ok();
      return memory.Protect(base + off, len, perm);
    };
    Status st = seal(0, image.rodata_offset, mem::Perm::kRX);
    if (st.ok()) {
      st = seal(image.rodata_offset, image.got_offset - image.rodata_offset,
                mem::Perm::kRead);
    }
    if (st.ok()) {
      st = seal(image.got_offset, image.data_offset - image.got_offset,
                options.got_read_only ? mem::Perm::kRead : mem::Perm::kRW);
    }
    if (st.ok()) {
      st = seal(image.data_offset, image.total_size - image.data_offset,
                mem::Perm::kRW);
    }
    if (!st.ok()) {
      rollback();
      return st;
    }
  }

  return lib;
}

Status RebindGot(mem::HostMemory& memory, const LoadedLibrary& lib,
                 const HostNamespace& ns) {
  if (lib.got_slots == 0) return Status::Ok();
  // The GOT may have been sealed read-only; lift and restore around the
  // rebinding (what a real loader does with mprotect during lazy updates).
  TC_ASSIGN_OR_RETURN(const mem::Perm old_perm,
                      memory.PagePerms(lib.got_addr));
  TC_RETURN_IF_ERROR(
      memory.Protect(lib.got_addr, 8ull * lib.got_slots, mem::Perm::kRW));
  Status result = Status::Ok();
  for (std::uint32_t slot = 0; slot < lib.got_slots; ++slot) {
    auto value = ns.Lookup(lib.got_symbols[slot]);
    if (!value.ok()) {
      result = value.status();
      break;
    }
    Status st = memory.StoreU64(lib.got_addr + 8ull * slot, *value);
    if (!st.ok()) {
      result = st;
      break;
    }
  }
  TC_RETURN_IF_ERROR(
      memory.Protect(lib.got_addr, 8ull * lib.got_slots, old_perm));
  return result;
}

}  // namespace twochains::jelf
