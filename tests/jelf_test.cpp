// Tests for the JELF toolchain layer: static linking, the GOT rewrite,
// serialization round trips, dynamic loading with namespace binding, and
// library hot-swap rebinding — the remote-linking machinery of §III.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "common/bitops.hpp"
#include "common/units.hpp"
#include "jamvm/assembler.hpp"
#include "jamvm/interpreter.hpp"
#include "jamvm/isa.hpp"
#include "jelf/format.hpp"
#include "jelf/got_rewriter.hpp"
#include "jelf/image.hpp"
#include "jelf/linker.hpp"
#include "jelf/loader.hpp"
#include "mem/host_memory.hpp"

namespace twochains::jelf {
namespace {

vm::ObjectCode MustAssemble(const std::string& src,
                            const std::string& name = "<test>") {
  auto obj = vm::Assemble(src, name);
  EXPECT_TRUE(obj.ok()) << obj.status();
  return std::move(obj).value();
}

LinkedImage MustLink(std::vector<vm::ObjectCode> objects,
                     LinkOptions options = {}) {
  auto image = Link(objects, options);
  EXPECT_TRUE(image.ok()) << image.status();
  return std::move(image).value();
}

// ----------------------------------------------------------------- link

TEST(LinkerTest, SingleObjectExports) {
  auto image = MustLink({MustAssemble(R"(
    .global f
    f:
      addi a0, a0, 1
      ret
  )")});
  ASSERT_TRUE(image.exports.contains("f"));
  EXPECT_EQ(image.exports.at("f").offset, 0u);
  EXPECT_EQ(image.got_slot_count(), 0u);
  EXPECT_TRUE(image.page_aligned);
  EXPECT_EQ(image.total_size % mem::kPageSize, 0u);
}

TEST(LinkerTest, CrossObjectPcrelIsAnErrorWithoutGot) {
  // Direct (PC-relative) calls to symbols in other objects are forbidden:
  // externals must go through the GOT, as the paper's -fno-plt flow forces.
  auto caller = MustAssemble(R"(
    .extern callee
    .global f
    f:
      call callee
      ret
  )", "caller.s");
  auto callee = MustAssemble(R"(
    .global callee
    callee: ret
  )", "callee.s");
  // The assembler emitted a pcrel reloc (call to undefined symbol)... which
  // links fine when the definition exists in the link set:
  auto both = Link(std::vector<vm::ObjectCode>{caller, callee}, {});
  EXPECT_TRUE(both.ok());
  // ...but fails when it does not.
  auto lone = Link(std::vector<vm::ObjectCode>{caller}, {});
  ASSERT_FALSE(lone.ok());
  EXPECT_EQ(lone.status().code(), StatusCode::kNotFound);
  EXPECT_NE(lone.status().message().find("GOT"), std::string::npos);
}

TEST(LinkerTest, GotSlotsAssignedPerUniqueSymbol) {
  auto image = MustLink({MustAssemble(R"(
    .extern alpha
    .extern beta
    .global f
    f:
      ldg t0, @alpha
      ldg t1, @beta
      ldg t2, @alpha     ; same slot as the first
      ret
  )")});
  ASSERT_EQ(image.got_slot_count(), 2u);
  EXPECT_EQ(image.got_symbols[0], "alpha");
  EXPECT_EQ(image.got_symbols[1], "beta");
  // Instruction 0 and 2 must point at slot 0, instruction 1 at slot 1.
  const auto i0 = vm::Decode(image.text.data());
  const auto i1 = vm::Decode(image.text.data() + 8);
  const auto i2 = vm::Decode(image.text.data() + 16);
  ASSERT_TRUE(i0 && i1 && i2);
  EXPECT_EQ(static_cast<std::uint64_t>(0 + i0->imm), image.got_offset);
  EXPECT_EQ(static_cast<std::uint64_t>(8 + i1->imm), image.got_offset + 8);
  EXPECT_EQ(static_cast<std::uint64_t>(16 + i2->imm), image.got_offset);
}

TEST(LinkerTest, DuplicateGlobalSymbolRejected) {
  auto a = MustAssemble(".global f\nf: ret", "a.s");
  auto b = MustAssemble(".global f\nf: ret", "b.s");
  auto image = Link(std::vector<vm::ObjectCode>{a, b}, {});
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), StatusCode::kAlreadyExists);
}

TEST(LinkerTest, LocalSymbolsDoNotCollideAcrossObjects) {
  auto a = MustAssemble(R"(
    .global fa
    fa:
    .here:
      jmp .here
  )", "a.s");
  auto b = MustAssemble(R"(
    .global fb
    fb:
    .here:
      jmp .here
  )", "b.s");
  EXPECT_TRUE(Link(std::vector<vm::ObjectCode>{a, b}, {}).ok());
}

TEST(LinkerTest, RodataLeaResolvesAcrossSections) {
  auto image = MustLink({MustAssemble(R"(
    .rodata
    blob: .quad 0x1122334455667788
    .text
    .global f
    f:
      lea t0, blob
      ldd a0, [t0]
      ret
  )")});
  const auto lea = vm::Decode(image.text.data());
  ASSERT_TRUE(lea.has_value());
  const std::uint64_t target = 0 + static_cast<std::uint64_t>(lea->imm);
  EXPECT_EQ(target, image.rodata_offset);
}

TEST(LinkerTest, JamOptionsForbidWritableData) {
  LinkOptions jam_opts;
  jam_opts.page_align_sections = false;
  jam_opts.forbid_writable_data = true;
  auto with_data = vm::Assemble(".data\ng: .quad 0\n.text\nf: ret");
  ASSERT_TRUE(with_data.ok());
  auto image = Link(std::vector<vm::ObjectCode>{*with_data}, jam_opts);
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), StatusCode::kInvalidArgument);
}

TEST(LinkerTest, CompactLayoutForJams) {
  LinkOptions jam_opts;
  jam_opts.page_align_sections = false;
  auto image = MustLink({MustAssemble(R"(
    .rodata
    s: .asciz "x"
    .text
    .global f
    f:
      lea a0, s
      ret
  )")}, jam_opts);
  EXPECT_FALSE(image.page_aligned);
  // Compact: rodata within 16 bytes after text, not a page away.
  EXPECT_LE(image.rodata_offset, image.text.size() + 16);
}

TEST(LinkerTest, DataKeepsOnlyItsInitializedPrefix) {
  // Zeros between objects' data stay; the zeros after the last nonzero
  // byte move to data_zero_fill, like an ELF segment's memsz - filesz.
  const LinkedImage image = MustLink({MustAssemble(R"(
    .data
    .global a
    a: .quad 5
    .space 8192
    .text
    .global f
    f:
      ret
  )", "a.s"), MustAssemble(R"(
    .data
    .space 4096
    .global b
    b: .quad 9
    .space 10000
  )", "b.s")});
  // b's little-endian 9 is its only nonzero byte.
  const std::uint64_t b_offset = 8 + 8192 + 4096;
  ASSERT_EQ(image.data.size(), b_offset + 1);
  EXPECT_EQ(image.data_zero_fill, 7u + 10000u);
  EXPECT_EQ(image.data[0], 5);
  EXPECT_EQ(image.data[b_offset], 9);
  EXPECT_EQ(image.exports.at("b").offset, image.data_offset + b_offset);
  EXPECT_EQ(image.total_size,
            AlignUp(image.data_offset + b_offset + 8 + 10000,
                    mem::kPageSize));
  EXPECT_TRUE(ValidateImageLayout(image).ok());

  auto parsed = ParseImage(SerializeImage(image));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->data, image.data);
  EXPECT_EQ(parsed->data_zero_fill, image.data_zero_fill);
}

TEST(LinkerTest, EmptyLinkRejected) {
  EXPECT_EQ(Link({}, {}).status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------- layout validate

// A well-formed image exercising every section: rodata, a GOT slot, and
// writable data. Tests below mutate one field at a time and expect
// ValidateImageLayout to call out exactly that corruption — the same gate
// the runtime runs over attacker-supplied package layouts.
LinkedImage LayoutFixture() {
  return MustLink({MustAssemble(R"(
    .extern ext
    .rodata
    blob: .quad 0x1122334455667788
    .data
    g: .quad 2
    .text
    .global f
    f:
      lea t0, blob
      ldg t1, @ext
      ret
  )")});
}

TEST(LayoutValidationTest, WellFormedImageAccepted) {
  const LinkedImage image = LayoutFixture();
  ASSERT_GT(image.rodata.size(), 0u);
  ASSERT_GT(image.got_slot_count(), 0u);
  ASSERT_GT(image.data.size(), 0u);
  EXPECT_TRUE(ValidateImageLayout(image).ok());
}

TEST(LayoutValidationTest, RodataOverlappingTextRejected) {
  LinkedImage image = LayoutFixture();
  image.rodata_offset = image.text.size() / 2;
  const Status status = ValidateImageLayout(image);
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("overlaps text"), std::string::npos);
}

TEST(LayoutValidationTest, RodataOverlappingGotRejected) {
  LinkedImage image = LayoutFixture();
  image.got_offset = image.rodata_offset;  // GOT lands on top of rodata
  const Status status = ValidateImageLayout(image);
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("overlaps the GOT"), std::string::npos);
}

TEST(LayoutValidationTest, GotOverlappingDataRejected) {
  LinkedImage image = LayoutFixture();
  image.data_offset = image.got_offset;  // data lands on top of the GOT
  const Status status = ValidateImageLayout(image);
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("overlaps data"), std::string::npos);
}

TEST(LayoutValidationTest, DataExceedingTotalSizeRejected) {
  LinkedImage image = LayoutFixture();
  image.total_size = image.data_offset + image.data.size() - 1;
  const Status status = ValidateImageLayout(image);
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("exceeds total_size"), std::string::npos);

  // And the wrap bait: total_size below data_offset must not underflow the
  // subtraction into a huge "remaining" budget.
  image.total_size = image.data_offset - 1;
  EXPECT_EQ(ValidateImageLayout(image).code(), StatusCode::kInvalidArgument);
}

TEST(LayoutValidationTest, ZeroFillExceedingTotalSizeRejected) {
  LinkedImage image = LayoutFixture();
  const std::uint64_t room =
      image.total_size - image.data_offset - image.data.size();
  image.data_zero_fill = room;
  EXPECT_TRUE(ValidateImageLayout(image).ok());
  image.data_zero_fill = room + 1;
  const Status status = ValidateImageLayout(image);
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("exceeds total_size"), std::string::npos);
  // A hostile fill must not wrap the bound.
  image.data_zero_fill = ~std::uint64_t{0};
  EXPECT_EQ(ValidateImageLayout(image).code(), StatusCode::kInvalidArgument);
}

TEST(LayoutValidationTest, ExportOutsideImageRejected) {
  LinkedImage image = LayoutFixture();
  image.exports["rogue"].offset = image.total_size;
  const Status status = ValidateImageLayout(image);
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("export 'rogue'"), std::string::npos);
}

TEST(LayoutValidationTest, FixupSlotOutsideImageRejected) {
  LinkedImage image = LayoutFixture();
  LoadFixup rogue;
  rogue.image_offset = image.total_size - 4;  // 8-byte slot straddles end
  image.fixups.push_back(rogue);
  const Status status = ValidateImageLayout(image);
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("fixup slot"), std::string::npos);
}

TEST(LayoutValidationTest, InternalFixupTargetOutsideImageRejected) {
  LinkedImage image = LayoutFixture();
  LoadFixup rogue;
  rogue.image_offset = image.got_offset;  // slot itself is fine
  rogue.internal = true;
  rogue.target_offset = image.total_size;  // target is not
  image.fixups.push_back(rogue);
  const Status status = ValidateImageLayout(image);
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("fixup target"), std::string::npos);
}

// ------------------------------------------------------------- rewriter

TEST(GotRewriterTest, RewritesFixToPre) {
  LinkOptions jam_opts;
  jam_opts.page_align_sections = false;
  auto image = MustLink({MustAssemble(R"(
    .extern helper
    .extern other
    .global f
    f:
      ldg t0, @helper
      ldg t1, @other
      ret
  )")}, jam_opts);
  ASSERT_FALSE(IsFullyRewritten(image));
  auto stats = RewriteGotAccesses(image);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rewritten, 2u);
  EXPECT_TRUE(IsFullyRewritten(image));

  const auto i0 = vm::Decode(image.text.data());
  const auto i1 = vm::Decode(image.text.data() + 8);
  ASSERT_TRUE(i0 && i1);
  EXPECT_EQ(i0->op, vm::Opcode::kLdgPre);
  EXPECT_EQ(i0->rs2, 0);  // slot of 'helper'
  EXPECT_EQ(i1->rs2, 1);  // slot of 'other'
  // Both point at the preamble slot 16 bytes before code start.
  EXPECT_EQ(i0->imm, kPreambleSlotOffset - 0);
  EXPECT_EQ(i1->imm, kPreambleSlotOffset - 8);
}

TEST(GotRewriterTest, IdempotentOnRewrittenImage) {
  LinkOptions jam_opts;
  jam_opts.page_align_sections = false;
  auto image = MustLink({MustAssemble(R"(
    .extern helper
    f:
      ldg t0, @helper
      ret
  )")}, jam_opts);
  ASSERT_TRUE(RewriteGotAccesses(image).ok());
  auto again = RewriteGotAccesses(image);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->rewritten, 0u);
}

// --------------------------------------------------------------- format

TEST(FormatTest, ObjectRoundTrip) {
  auto obj = MustAssemble(R"(
    .extern helper
    .rodata
    s: .asciz "two-chains"
    .data
    g: .quad s
    .text
    .global f
    f:
      ldg t0, @helper
      lea a0, s
      ret
  )", "roundtrip.s");
  const auto bytes = SerializeObject(obj);
  auto parsed = ParseObject(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->source_name, obj.source_name);
  EXPECT_EQ(parsed->text, obj.text);
  EXPECT_EQ(parsed->rodata, obj.rodata);
  EXPECT_EQ(parsed->data, obj.data);
  EXPECT_EQ(parsed->symbols.size(), obj.symbols.size());
  EXPECT_EQ(parsed->relocs.size(), obj.relocs.size());
  for (std::size_t i = 0; i < obj.relocs.size(); ++i) {
    EXPECT_EQ(parsed->relocs[i].kind, obj.relocs[i].kind);
    EXPECT_EQ(parsed->relocs[i].symbol, obj.relocs[i].symbol);
    EXPECT_EQ(parsed->relocs[i].offset, obj.relocs[i].offset);
  }
}

TEST(FormatTest, ImageRoundTrip) {
  auto image = MustLink({MustAssemble(R"(
    .extern helper
    .global f
    f:
      ldg t0, @helper
      ret
  )")});
  const auto bytes = SerializeImage(image);
  auto parsed = ParseImage(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->name, image.name);
  EXPECT_EQ(parsed->text, image.text);
  EXPECT_EQ(parsed->got_symbols, image.got_symbols);
  EXPECT_EQ(parsed->got_offset, image.got_offset);
  EXPECT_EQ(parsed->total_size, image.total_size);
  EXPECT_EQ(parsed->exports.size(), image.exports.size());
}

TEST(FormatTest, CorruptionDetected) {
  auto obj = MustAssemble("f: ret");
  auto bytes = SerializeObject(obj);
  bytes[0] ^= 0xFF;  // break magic
  EXPECT_EQ(ParseObject(bytes).status().code(), StatusCode::kDataLoss);

  auto good = SerializeObject(obj);
  good.resize(good.size() / 2);  // truncate
  EXPECT_EQ(ParseObject(good).status().code(), StatusCode::kDataLoss);

  // Wrong record type.
  auto image = MustLink({obj});
  EXPECT_EQ(ParseObject(SerializeImage(image)).status().code(),
            StatusCode::kDataLoss);
}

// --------------------------------------------------------------- loader

class LoaderTest : public ::testing::Test {
 protected:
  LoaderTest() : mem_(0, MiB(16)), caches_(CacheConfig()) {}

  static cache::HierarchyConfig CacheConfig() {
    cache::HierarchyConfig cfg;
    cfg.l1 = {"L1", KiB(16), 4, 2};
    cfg.l2 = {"L2", KiB(64), 8, 12};
    cfg.l3 = {"L3", KiB(128), 16, 30};
    cfg.llc = {"LLC", KiB(256), 16, 55};
    return cfg;
  }

  std::uint64_t RunFunction(mem::VirtAddr entry,
                            std::vector<std::uint64_t> args,
                            const vm::NativeTable* natives = nullptr) {
    auto stack = mem_.Allocate(KiB(64), 16, mem::Perm::kRW, "stack");
    EXPECT_TRUE(stack.ok());
    vm::Interpreter interp(mem_, caches_, 0, natives);
    const auto r = interp.Execute(entry, args, *stack + KiB(64));
    EXPECT_TRUE(r.status.ok()) << r.status;
    return r.return_value;
  }

  mem::HostMemory mem_;
  cache::CacheHierarchy caches_;
  HostNamespace ns_;
};

TEST_F(LoaderTest, LoadBindExecute) {
  // Library A exports add5; library B calls it through the GOT.
  auto lib_a = MustLink({MustAssemble(R"(
    .global add5
    add5:
      addi a0, a0, 5
      ret
  )", "a.s")}, {.image_name = "liba"});
  auto lib_b = MustLink({MustAssemble(R"(
    .extern add5
    .global calls_add5
    calls_add5:
      addi sp, sp, -16
      std lr, [sp]
      ldg t0, @add5
      jalr lr, t0, 0
      ldd lr, [sp]
      addi sp, sp, 16
      addi a0, a0, 100
      ret
  )", "b.s")}, {.image_name = "libb"});

  auto loaded_a = LoadLibrary(mem_, lib_a, ns_);
  ASSERT_TRUE(loaded_a.ok()) << loaded_a.status();
  auto loaded_b = LoadLibrary(mem_, lib_b, ns_);
  ASSERT_TRUE(loaded_b.ok()) << loaded_b.status();

  EXPECT_EQ(RunFunction(loaded_b->exports.at("calls_add5"), {1}), 106u);
}

TEST_F(LoaderTest, SectionPermissionsEnforced) {
  auto lib = MustLink({MustAssemble(R"(
    .rodata
    r: .quad 7
    .data
    d: .quad 9
    .global f
    .text
    f: ret
  )", "perm.s")}, {.image_name = "libperm"});
  auto loaded = LoadLibrary(mem_, lib, ns_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // text page: r-x ; rodata page: r-- ; data page: rw-.
  EXPECT_EQ(mem_.PagePerms(loaded->base).value(), mem::Perm::kRX);
  EXPECT_EQ(mem_.PagePerms(loaded->base + lib.rodata_offset).value(),
            mem::Perm::kRead);
  EXPECT_EQ(mem_.PagePerms(loaded->base + lib.data_offset).value(),
            mem::Perm::kRW);
  // And the data fixup-free values actually landed.
  EXPECT_EQ(mem_.LoadU64(loaded->base + lib.rodata_offset).value(), 7u);
  EXPECT_EQ(mem_.LoadU64(loaded->base + lib.data_offset).value(), 9u);
}

TEST_F(LoaderTest, GotReadOnlyOption) {
  auto lib = MustLink({MustAssemble(R"(
    .extern ext
    .global f
    f:
      ldg t0, @ext
      ret
  )", "g.s")}, {.image_name = "libro"});
  ASSERT_TRUE(ns_.Define("ext", 0xABC).ok());
  LoadOptions opts;
  opts.got_read_only = true;
  auto loaded = LoadLibrary(mem_, lib, ns_, opts);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(mem_.PagePerms(loaded->got_addr).value(), mem::Perm::kRead);
  EXPECT_EQ(mem_.LoadU64(loaded->got_addr).value(), 0xABCu);
  // Direct CPU stores to the sealed GOT are denied (the §V GOT-overwrite
  // mitigation).
  EXPECT_EQ(mem_.StoreU64(loaded->got_addr, 0xBAD).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(LoaderTest, UnresolvedSymbolFailsAndRollsBack) {
  auto lib = MustLink({MustAssemble(R"(
    .extern missing
    .global f
    f:
      ldg t0, @missing
      ret
  )", "u.s")}, {.image_name = "libu"});
  const auto before = mem_.allocated_bytes();
  auto loaded = LoadLibrary(mem_, lib, ns_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(mem_.allocated_bytes(), before);   // allocation rolled back
  EXPECT_FALSE(ns_.Contains("f"));             // exports rolled back
}

TEST_F(LoaderTest, DuplicateExportRejectedWithoutOverride) {
  auto lib1 = MustLink({MustAssemble(".global f\nf: ret", "1.s")},
                       {.image_name = "lib1"});
  auto lib2 = MustLink({MustAssemble(".global f\nf: ret", "2.s")},
                       {.image_name = "lib2"});
  ASSERT_TRUE(LoadLibrary(mem_, lib1, ns_).ok());
  auto second = LoadLibrary(mem_, lib2, ns_);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
  LoadOptions override_opts;
  override_opts.allow_export_override = true;
  EXPECT_TRUE(LoadLibrary(mem_, lib2, ns_, override_opts).ok());
}

TEST_F(LoaderTest, HotSwapWithRebindChangesBehavior) {
  // The remote-update story (§III): load v1, bind a caller, hot-swap v2,
  // rebind, and the same call site now runs the new code.
  auto v1 = MustLink({MustAssemble(R"(
    .global impl
    impl:
      movi a0, 1
      ret
  )", "v1.s")}, {.image_name = "impl_v1"});
  auto v2 = MustLink({MustAssemble(R"(
    .global impl
    impl:
      movi a0, 2
      ret
  )", "v2.s")}, {.image_name = "impl_v2"});
  auto caller = MustLink({MustAssemble(R"(
    .extern impl
    .global call_impl
    call_impl:
      addi sp, sp, -16
      std lr, [sp]
      ldg t0, @impl
      jalr lr, t0, 0
      ldd lr, [sp]
      addi sp, sp, 16
      ret
  )", "caller.s")}, {.image_name = "caller"});

  ASSERT_TRUE(LoadLibrary(mem_, v1, ns_).ok());
  auto loaded_caller = LoadLibrary(mem_, caller, ns_);
  ASSERT_TRUE(loaded_caller.ok());
  const auto entry = loaded_caller->exports.at("call_impl");
  EXPECT_EQ(RunFunction(entry, {}), 1u);

  LoadOptions swap;
  swap.allow_export_override = true;
  ASSERT_TRUE(LoadLibrary(mem_, v2, ns_, swap).ok());
  // Old binding still in the caller's GOT until rebind.
  EXPECT_EQ(RunFunction(entry, {}), 1u);
  ASSERT_TRUE(RebindGot(mem_, *loaded_caller, ns_).ok());
  EXPECT_EQ(RunFunction(entry, {}), 2u);
}

TEST_F(LoaderTest, NativeSymbolsBindThroughNamespace) {
  vm::NativeTable natives;
  ASSERT_TRUE(vm::RegisterStandardNatives(natives, {}).ok());
  const auto idx = natives.IndexOf("tc_hash64");
  ASSERT_TRUE(idx.ok());
  ASSERT_TRUE(ns_.Define("tc_hash64", vm::MakeNativeHandle(*idx)).ok());

  auto lib = MustLink({MustAssemble(R"(
    .extern tc_hash64
    .global hash_it
    hash_it:
      addi sp, sp, -16
      std lr, [sp]
      ldg t0, @tc_hash64
      jalr lr, t0, 0
      ldd lr, [sp]
      addi sp, sp, 16
      ret
  )", "n.s")}, {.image_name = "libn"});
  auto loaded = LoadLibrary(mem_, lib, ns_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const auto h = RunFunction(loaded->exports.at("hash_it"), {42}, &natives);
  EXPECT_NE(h, 42u);  // mixed
}

/// Loads @p image over pages a freed allocation left dirty and returns
/// the image's bytes as the host sees them.
std::vector<std::uint8_t> LoadOverDirtyPages(const LinkedImage& image,
                                             LoadedLibrary* out) {
  mem::HostMemory memory(0, MiB(4));
  auto dirty = memory.Allocate(image.total_size, mem::kPageSize,
                               mem::Perm::kRW, "dirty");
  if (!dirty.ok()) {
    ADD_FAILURE() << dirty.status();
    return {};
  }
  const std::vector<std::uint8_t> junk(image.total_size, 0xA5);
  EXPECT_TRUE(memory.Write(*dirty, junk).ok());
  EXPECT_TRUE(memory.Free(*dirty).ok());
  HostNamespace ns;
  auto lib = LoadLibrary(memory, image, ns);
  if (!lib.ok()) {
    ADD_FAILURE() << lib.status();
    return {};
  }
  EXPECT_EQ(lib->base, *dirty);  // the library reuses the dirty pages
  std::vector<std::uint8_t> bytes(image.total_size);
  EXPECT_TRUE(memory.DmaRead(lib->base, bytes).ok());
  *out = *lib;
  return bytes;
}

TEST(LoaderZeroFillTest, ZeroTailLoadsLikeAFullWrite) {
  // A nonzero head, a multi-page zero tail, and an absolute pointer whose
  // placeholder bytes sit in that tail (the fixup lands after the fill).
  const LinkedImage sparse = MustLink({MustAssemble(R"(
    .data
    .global head
    head: .quad 0x1122334455667788
    .space 20000
    .global ptr
    ptr: .quad head
    .text
    .global f
    f:
      ret
  )")});
  ASSERT_EQ(sparse.data.size(), 8u);
  ASSERT_GT(sparse.data_zero_fill, 2 * mem::kPageSize);
  LinkedImage full = sparse;
  full.data.resize(full.data.size() + full.data_zero_fill, 0);
  full.data_zero_fill = 0;

  LoadedLibrary lib;
  LoadedLibrary full_lib;
  const auto got = LoadOverDirtyPages(sparse, &lib);
  const auto want = LoadOverDirtyPages(full, &full_lib);
  ASSERT_EQ(got.size(), sparse.total_size);
  EXPECT_EQ(got, want);

  const std::uint64_t data = sparse.data_offset;
  std::uint64_t head = 0;
  std::memcpy(&head, got.data() + data, sizeof(head));
  EXPECT_EQ(head, 0x1122334455667788u);
  for (std::uint64_t i = data + 8; i < data + 8 + 20000; ++i) {
    ASSERT_EQ(got[i], 0) << "offset " << i;
  }
  std::uint64_t ptr = 0;
  std::memcpy(&ptr, got.data() + data + 8 + 20000, sizeof(ptr));
  EXPECT_EQ(ptr, lib.exports.at("head"));
}

TEST(NamespaceTest, DefineLookupRemove) {
  HostNamespace ns;
  EXPECT_TRUE(ns.Define("a", 1).ok());
  EXPECT_EQ(ns.Define("a", 2).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(ns.Define("a", 2, /*allow_redefine=*/true).ok());
  EXPECT_EQ(ns.Lookup("a").value(), 2u);
  EXPECT_EQ(ns.Lookup("b").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(ns.Remove("a").ok());
  EXPECT_EQ(ns.Remove("a").code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace twochains::jelf
