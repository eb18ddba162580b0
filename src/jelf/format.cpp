#include "jelf/format.hpp"

#include "common/byte_io.hpp"

namespace twochains::jelf {
namespace {

constexpr std::uint8_t kTypeObject = 0;
constexpr std::uint8_t kTypeImage = 1;

void WriteHeader(ByteWriter& w, std::uint8_t type) {
  w.U32(kJelfMagic);
  w.U16(kJelfVersion);
  w.U8(type);
  w.U8(0);  // reserved
}

Status CheckHeader(ByteReader& r, std::uint8_t expected_type) {
  TC_ASSIGN_OR_RETURN(const auto magic, r.U32());
  if (magic != kJelfMagic) return DataLoss("bad JELF magic");
  TC_ASSIGN_OR_RETURN(const auto version, r.U16());
  if (version != kJelfVersion) return DataLoss("unsupported JELF version");
  TC_ASSIGN_OR_RETURN(const auto type, r.U8());
  if (type != expected_type) return DataLoss("wrong JELF record type");
  TC_ASSIGN_OR_RETURN(const auto reserved, r.U8());
  (void)reserved;
  return Status::Ok();
}

void WriteBlob(ByteWriter& w, const std::vector<std::uint8_t>& blob) {
  w.U64(blob.size());
  w.Bytes(blob);
}

StatusOr<std::vector<std::uint8_t>> ReadBlob(ByteReader& r) {
  TC_ASSIGN_OR_RETURN(const auto size, r.U64());
  TC_ASSIGN_OR_RETURN(const auto bytes, r.Bytes(size));
  return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
}

}  // namespace

std::vector<std::uint8_t> SerializeObject(const vm::ObjectCode& object) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  WriteHeader(w, kTypeObject);
  w.LengthPrefixedString(object.source_name);
  WriteBlob(w, object.text);
  WriteBlob(w, object.rodata);
  WriteBlob(w, object.data);
  w.U32(static_cast<std::uint32_t>(object.symbols.size()));
  for (const auto& sym : object.symbols) {
    w.LengthPrefixedString(sym.name);
    w.U8(static_cast<std::uint8_t>(sym.section));
    w.U64(sym.offset);
    w.U8(sym.defined ? 1 : 0);
    w.U8(sym.global ? 1 : 0);
    w.U8(static_cast<std::uint8_t>(sym.kind));
  }
  w.U32(static_cast<std::uint32_t>(object.relocs.size()));
  for (const auto& reloc : object.relocs) {
    w.U8(static_cast<std::uint8_t>(reloc.kind));
    w.U8(static_cast<std::uint8_t>(reloc.section));
    w.U64(reloc.offset);
    w.LengthPrefixedString(reloc.symbol);
    w.I64(reloc.addend);
  }
  return out;
}

StatusOr<vm::ObjectCode> ParseObject(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  TC_RETURN_IF_ERROR(CheckHeader(r, kTypeObject));
  vm::ObjectCode obj;
  TC_ASSIGN_OR_RETURN(obj.source_name, r.LengthPrefixedString());
  TC_ASSIGN_OR_RETURN(obj.text, ReadBlob(r));
  TC_ASSIGN_OR_RETURN(obj.rodata, ReadBlob(r));
  TC_ASSIGN_OR_RETURN(obj.data, ReadBlob(r));
  TC_ASSIGN_OR_RETURN(const auto nsyms, r.U32());
  for (std::uint32_t i = 0; i < nsyms; ++i) {
    vm::Symbol sym;
    TC_ASSIGN_OR_RETURN(sym.name, r.LengthPrefixedString());
    TC_ASSIGN_OR_RETURN(const auto section, r.U8());
    if (section > 2) return DataLoss("bad symbol section");
    sym.section = static_cast<vm::SectionKind>(section);
    TC_ASSIGN_OR_RETURN(sym.offset, r.U64());
    TC_ASSIGN_OR_RETURN(const auto defined, r.U8());
    sym.defined = defined != 0;
    TC_ASSIGN_OR_RETURN(const auto global, r.U8());
    sym.global = global != 0;
    TC_ASSIGN_OR_RETURN(const auto kind, r.U8());
    if (kind > 1) return DataLoss("bad symbol kind");
    sym.kind = static_cast<vm::SymbolKind>(kind);
    obj.symbols.push_back(std::move(sym));
  }
  TC_ASSIGN_OR_RETURN(const auto nrelocs, r.U32());
  for (std::uint32_t i = 0; i < nrelocs; ++i) {
    vm::Reloc reloc;
    TC_ASSIGN_OR_RETURN(const auto kind, r.U8());
    if (kind > 2) return DataLoss("bad reloc kind");
    reloc.kind = static_cast<vm::RelocKind>(kind);
    TC_ASSIGN_OR_RETURN(const auto section, r.U8());
    if (section > 2) return DataLoss("bad reloc section");
    reloc.section = static_cast<vm::SectionKind>(section);
    TC_ASSIGN_OR_RETURN(reloc.offset, r.U64());
    TC_ASSIGN_OR_RETURN(reloc.symbol, r.LengthPrefixedString());
    TC_ASSIGN_OR_RETURN(const auto addend, r.U64());
    reloc.addend = static_cast<std::int64_t>(addend);
    obj.relocs.push_back(std::move(reloc));
  }
  return obj;
}

std::vector<std::uint8_t> SerializeImage(const LinkedImage& image) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  WriteHeader(w, kTypeImage);
  w.LengthPrefixedString(image.name);
  WriteBlob(w, image.text);
  WriteBlob(w, image.rodata);
  WriteBlob(w, image.data);
  w.U64(image.data_zero_fill);
  w.U64(image.rodata_offset);
  w.U64(image.got_offset);
  w.U64(image.data_offset);
  w.U64(image.total_size);
  w.U8(image.page_aligned ? 1 : 0);
  w.U32(static_cast<std::uint32_t>(image.got_symbols.size()));
  for (const auto& sym : image.got_symbols) w.LengthPrefixedString(sym);
  w.U32(static_cast<std::uint32_t>(image.exports.size()));
  for (const auto& [name, entry] : image.exports) {
    w.LengthPrefixedString(name);
    w.U64(entry.offset);
    w.U8(static_cast<std::uint8_t>(entry.kind));
  }
  w.U32(static_cast<std::uint32_t>(image.fixups.size()));
  for (const auto& fixup : image.fixups) {
    w.U64(fixup.image_offset);
    w.U8(fixup.internal ? 1 : 0);
    w.U64(fixup.target_offset);
    w.LengthPrefixedString(fixup.symbol);
    w.I64(fixup.addend);
  }
  return out;
}

StatusOr<LinkedImage> ParseImage(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  TC_RETURN_IF_ERROR(CheckHeader(r, kTypeImage));
  LinkedImage image;
  TC_ASSIGN_OR_RETURN(image.name, r.LengthPrefixedString());
  TC_ASSIGN_OR_RETURN(image.text, ReadBlob(r));
  TC_ASSIGN_OR_RETURN(image.rodata, ReadBlob(r));
  TC_ASSIGN_OR_RETURN(image.data, ReadBlob(r));
  TC_ASSIGN_OR_RETURN(image.data_zero_fill, r.U64());
  TC_ASSIGN_OR_RETURN(image.rodata_offset, r.U64());
  TC_ASSIGN_OR_RETURN(image.got_offset, r.U64());
  TC_ASSIGN_OR_RETURN(image.data_offset, r.U64());
  TC_ASSIGN_OR_RETURN(image.total_size, r.U64());
  TC_ASSIGN_OR_RETURN(const auto aligned, r.U8());
  image.page_aligned = aligned != 0;
  TC_ASSIGN_OR_RETURN(const auto ngot, r.U32());
  for (std::uint32_t i = 0; i < ngot; ++i) {
    TC_ASSIGN_OR_RETURN(auto sym, r.LengthPrefixedString());
    image.got_symbols.push_back(std::move(sym));
  }
  TC_ASSIGN_OR_RETURN(const auto nexports, r.U32());
  for (std::uint32_t i = 0; i < nexports; ++i) {
    TC_ASSIGN_OR_RETURN(auto name, r.LengthPrefixedString());
    ExportEntry entry;
    TC_ASSIGN_OR_RETURN(entry.offset, r.U64());
    TC_ASSIGN_OR_RETURN(const auto kind, r.U8());
    if (kind > 1) return DataLoss("bad export kind");
    entry.kind = static_cast<vm::SymbolKind>(kind);
    image.exports.emplace(std::move(name), entry);
  }
  TC_ASSIGN_OR_RETURN(const auto nfixups, r.U32());
  for (std::uint32_t i = 0; i < nfixups; ++i) {
    LoadFixup fixup;
    TC_ASSIGN_OR_RETURN(fixup.image_offset, r.U64());
    TC_ASSIGN_OR_RETURN(const auto internal, r.U8());
    fixup.internal = internal != 0;
    TC_ASSIGN_OR_RETURN(fixup.target_offset, r.U64());
    TC_ASSIGN_OR_RETURN(fixup.symbol, r.LengthPrefixedString());
    TC_ASSIGN_OR_RETURN(const auto addend, r.U64());
    fixup.addend = static_cast<std::int64_t>(addend);
    image.fixups.push_back(std::move(fixup));
  }
  return image;
}

}  // namespace twochains::jelf
