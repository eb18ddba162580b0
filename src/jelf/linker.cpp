#include "jelf/linker.hpp"

#include <cstring>
#include <map>

#include "common/bitops.hpp"
#include "common/strfmt.hpp"
#include "jamvm/isa.hpp"
#include "mem/address.hpp"

namespace twochains::jelf {
namespace {

struct Placement {
  std::uint64_t text = 0;
  std::uint64_t rodata = 0;  // within merged rodata (pre-offset)
  std::uint64_t data = 0;
};

std::uint64_t SectionAlign(vm::SectionKind kind) {
  switch (kind) {
    case vm::SectionKind::kText: return 8;
    case vm::SectionKind::kRodata: return 16;
    case vm::SectionKind::kData: return 8;
  }
  return 8;
}

/// Length of @p bytes up to and including its last nonzero byte.
std::size_t InitializedPrefix(std::span<const std::uint8_t> bytes) {
  std::size_t n = bytes.size();
  for (std::uint64_t word = 0; n >= sizeof(word); n -= sizeof(word)) {
    std::memcpy(&word, bytes.data() + n - sizeof(word), sizeof(word));
    if (word != 0) break;
  }
  while (n > 0 && bytes[n - 1] == 0) --n;
  return n;
}

}  // namespace

StatusOr<LinkedImage> Link(std::span<const vm::ObjectCode> objects,
                           const LinkOptions& options) {
  if (objects.empty()) return InvalidArgument("no objects to link");

  LinkedImage image;
  image.name = options.image_name;
  image.page_aligned = options.page_align_sections;

  // ---- 1. merge sections, remembering per-object placements ----------
  std::vector<Placement> place(objects.size());
  std::uint64_t data_size = 0;  // merged .data bytes, zero tail included
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const auto& obj = objects[i];
    if (obj.text.size() % vm::kInstrBytes != 0) {
      return DataLoss(StrFormat("%s: text size not instruction aligned",
                                obj.source_name.c_str()));
    }
    if (options.forbid_writable_data && !obj.data.empty()) {
      return InvalidArgument(
          StrFormat("%s: writable .data is not allowed in a jam "
                    "(jams are stateless mobile code)",
                    obj.source_name.c_str()));
    }
    auto pad = [](std::vector<std::uint8_t>& v, std::uint64_t align) {
      while (v.size() % align != 0) v.push_back(0);
    };
    pad(image.text, SectionAlign(vm::SectionKind::kText));
    place[i].text = image.text.size();
    image.text.insert(image.text.end(), obj.text.begin(), obj.text.end());

    pad(image.rodata, SectionAlign(vm::SectionKind::kRodata));
    place[i].rodata = image.rodata.size();
    image.rodata.insert(image.rodata.end(), obj.rodata.begin(),
                        obj.rodata.end());

    // .data keeps only bytes up to the last nonzero one; the zeros after
    // it (alignment padding included) are counted in data_size.
    place[i].data = AlignUp(data_size, SectionAlign(vm::SectionKind::kData));
    const std::size_t init = InitializedPrefix(obj.data);
    if (init > 0) {
      image.data.resize(place[i].data, 0);
      image.data.insert(image.data.end(), obj.data.begin(),
                        obj.data.begin() + init);
    }
    data_size = place[i].data + obj.data.size();
  }
  image.data_zero_fill = data_size - image.data.size();

  // ---- 2. layout ------------------------------------------------------
  const std::uint64_t align =
      options.page_align_sections ? mem::kPageSize : 16;
  image.rodata_offset = AlignUp(image.text.size(), align);
  image.got_offset = AlignUp(image.rodata_offset + image.rodata.size(), align);

  // ---- 3. resolve symbols ---------------------------------------------
  // Global symbols resolve across objects; local symbols resolve only
  // within their own object (two objects may both define a local ".loop").
  auto image_offset_of = [&](std::size_t obj_idx,
                             const vm::Symbol& sym) -> std::uint64_t {
    switch (sym.section) {
      case vm::SectionKind::kText:
        return place[obj_idx].text + sym.offset;
      case vm::SectionKind::kRodata:
        return image.rodata_offset + place[obj_idx].rodata + sym.offset;
      case vm::SectionKind::kData:
        // data offset depends on GOT size; patched below once known. Store
        // the pre-offset; marker handled via section check later.
        return place[obj_idx].data + sym.offset;
    }
    return 0;
  };

  // GOT slots must be assigned before data_offset is known, and data
  // symbols' image offsets depend on data_offset. Handle by recording the
  // section alongside the offset and materializing late.
  struct PendingDef {
    std::uint64_t raw_offset;
    vm::SectionKind section;
    vm::SymbolKind kind;
    bool global;
  };
  std::map<std::string, PendingDef> global_defs;
  std::vector<std::map<std::string, PendingDef>> local_defs(objects.size());

  for (std::size_t i = 0; i < objects.size(); ++i) {
    for (const auto& sym : objects[i].symbols) {
      if (!sym.defined) continue;
      PendingDef def{image_offset_of(i, sym), sym.section, sym.kind,
                     sym.global};
      if (sym.global) {
        if (global_defs.contains(sym.name)) {
          return AlreadyExists(StrFormat("duplicate symbol '%s' (in %s)",
                                         sym.name.c_str(),
                                         objects[i].source_name.c_str()));
        }
        global_defs.emplace(sym.name, def);
      } else {
        local_defs[i].emplace(sym.name, def);
      }
    }
  }

  // ---- 4. assign GOT slots ---------------------------------------------
  std::map<std::string, std::uint32_t> got_index;
  for (const auto& obj : objects) {
    for (const auto& reloc : obj.relocs) {
      if (reloc.kind != vm::RelocKind::kGotSlot) continue;
      if (!got_index.contains(reloc.symbol)) {
        got_index.emplace(reloc.symbol,
                          static_cast<std::uint32_t>(image.got_symbols.size()));
        image.got_symbols.push_back(reloc.symbol);
      }
    }
  }
  const std::uint64_t got_bytes = image.got_symbols.size() * 8ull;
  image.data_offset = AlignUp(image.got_offset + got_bytes, align);
  image.total_size =
      AlignUp(image.data_offset + data_size,
              options.page_align_sections ? mem::kPageSize : 8);

  auto materialize = [&](const PendingDef& def) -> std::uint64_t {
    if (def.section == vm::SectionKind::kData) {
      return image.data_offset + def.raw_offset;
    }
    return def.raw_offset;
  };

  auto resolve = [&](std::size_t obj_idx,
                     const std::string& name) -> const PendingDef* {
    const auto local_it = local_defs[obj_idx].find(name);
    if (local_it != local_defs[obj_idx].end()) return &local_it->second;
    const auto global_it = global_defs.find(name);
    if (global_it != global_defs.end()) return &global_it->second;
    return nullptr;
  };

  // ---- 5. apply relocations --------------------------------------------
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const auto& obj = objects[i];
    for (const auto& reloc : obj.relocs) {
      switch (reloc.kind) {
        case vm::RelocKind::kPcrel32: {
          if (reloc.section != vm::SectionKind::kText) {
            return InvalidArgument("pcrel32 outside .text");
          }
          const std::uint64_t site = place[i].text + reloc.offset;
          const PendingDef* def = resolve(i, reloc.symbol);
          if (def == nullptr) {
            return NotFound(StrFormat(
                "%s: PC-relative reference to undefined symbol '%s' — "
                "external symbols must be accessed through the GOT (ldg)",
                obj.source_name.c_str(), reloc.symbol.c_str()));
          }
          const std::int64_t delta =
              static_cast<std::int64_t>(materialize(*def)) + reloc.addend -
              static_cast<std::int64_t>(site);
          if (delta < INT32_MIN || delta > INT32_MAX) {
            return OutOfRange("pcrel32 overflow");
          }
          const auto imm = static_cast<std::int32_t>(delta);
          std::memcpy(image.text.data() + site + 4, &imm, sizeof(imm));
          break;
        }
        case vm::RelocKind::kGotSlot: {
          const std::uint64_t site = place[i].text + reloc.offset;
          const std::uint32_t slot = got_index.at(reloc.symbol);
          const std::int64_t delta =
              static_cast<std::int64_t>(image.got_offset + slot * 8ull) -
              static_cast<std::int64_t>(site);
          if (delta < INT32_MIN || delta > INT32_MAX) {
            return OutOfRange("got pcrel overflow");
          }
          const auto imm = static_cast<std::int32_t>(delta);
          std::memcpy(image.text.data() + site + 4, &imm, sizeof(imm));
          break;
        }
        case vm::RelocKind::kAbs64: {
          std::uint64_t site;
          switch (reloc.section) {
            case vm::SectionKind::kText:
              site = place[i].text + reloc.offset;
              break;
            case vm::SectionKind::kRodata:
              site = image.rodata_offset + place[i].rodata + reloc.offset;
              break;
            case vm::SectionKind::kData:
              site = image.data_offset + place[i].data + reloc.offset;
              break;
            default:
              return Internal("bad reloc section");
          }
          LoadFixup fixup;
          fixup.image_offset = site;
          const PendingDef* def = resolve(i, reloc.symbol);
          if (def != nullptr) {
            fixup.internal = true;
            fixup.target_offset =
                materialize(*def) + static_cast<std::uint64_t>(reloc.addend);
          } else {
            fixup.internal = false;
            fixup.symbol = reloc.symbol;
            fixup.addend = reloc.addend;
          }
          image.fixups.push_back(std::move(fixup));
          break;
        }
      }
    }
  }

  // ---- 6. exports -------------------------------------------------------
  for (const auto& [name, def] : global_defs) {
    image.exports.emplace(name, ExportEntry{materialize(def), def.kind});
  }

  return image;
}

}  // namespace twochains::jelf
