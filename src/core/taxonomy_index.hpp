#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "core/flexibility.hpp"
#include "core/machine_class.hpp"
#include "core/naming.hpp"
#include "core/roman.hpp"
#include "core/taxonomy_table.hpp"

namespace mpct {

/// Dense, immutable index over the 47-class extended taxonomy — the
/// allocation-free fast path under `classify()`, `canonical_class()` and
/// the `find_entry()` lookups.
///
/// All of it is constant data the compiler builds from Table I and the
/// rule walker (`detail::apply_rules`); nothing is constructed at run
/// time, so the first call in a process costs what every later one does:
///  * every canonical row's name is rendered into a fixed buffer, so hot
///    paths hand out `string_view`s instead of formatting strings;
///  * flexibility scores are precomputed per row (Table II without the
///    per-call switch walk);
///  * a `MachineClass` packs into a 15-bit structural key (granularity,
///    two multiplicities, five switch kinds), and a dense table over
///    that key space (taxonomy_index.cpp) holds the classification of
///    *every* possible structure, making `classify()` a single load.
///
/// Thread safety: read-only constant data, safe for any number of
/// concurrent readers (service::QueryEngine workers, the parallel sweep).
class TaxonomyIndex {
 public:
  /// Number of rows in Table I.
  static constexpr int kRowCount = 47;

  /// One taxonomy row in index form: everything the hot paths need,
  /// precomputed and flat.
  struct ClassInfo {
    TaxonomicName name{};    ///< meaningful only when `named`
    MachineClass machine;    ///< canonical Table I structure
    std::int16_t serial = 0; ///< 1..47, Table I order
    bool named = false;      ///< false for the four NI rows
    bool implementable = false;
    std::int8_t flexibility = 0;  ///< Table II score of `machine`
    /// Rendered class name ("DMP-III", "USP"); "NI" for the
    /// not-implementable rows.  Static storage.
    std::string_view interned_name;
  };

  /// Allocation-free classification result.  `info` points at the
  /// canonical row carrying the resulting name (so the caller gets the
  /// interned name and precomputed flexibility for free); null when the
  /// structure has no taxonomic name, with `note` referencing a static
  /// diagnostic.
  struct FastClassification {
    const ClassInfo* info = nullptr;
    std::string_view note;  ///< static storage; empty on success

    bool ok() const { return info != nullptr; }
  };

  static constexpr const TaxonomyIndex& instance();

  TaxonomyIndex(const TaxonomyIndex&) = delete;
  TaxonomyIndex& operator=(const TaxonomyIndex&) = delete;

  /// All 47 rows in Table I order.
  constexpr std::span<const ClassInfo> rows() const;

  /// Row by serial 1..47 (nullptr out of range).
  constexpr const ClassInfo* by_serial(int serial) const;

  /// Canonical row for a taxonomic name — O(1) arithmetic on the name,
  /// no scan.  nullptr when the name is not canonical.
  constexpr const ClassInfo* by_name(const TaxonomicName& name) const;

  /// Row whose canonical structure equals @p mc exactly; nullptr when the
  /// structure is not one of the 47 rows.  A scan of the rows: no hot
  /// path asks this.
  constexpr const ClassInfo* by_structure(const MachineClass& mc) const;

  /// Classify any structure — one table load, no formatting, no
  /// allocation.  Same decision rules as `mpct::classify()` (which is a
  /// wrapper over this).
  FastClassification classify(const MachineClass& mc) const;

  /// Interned rendering of a canonical name; empty view when the name is
  /// not canonical.
  constexpr std::string_view interned_name(const TaxonomicName& name) const {
    const ClassInfo* info = by_name(name);
    return info ? info->interned_name : std::string_view{};
  }

 private:
  constexpr TaxonomyIndex() = default;

  static const TaxonomyIndex kInstance;
};

namespace detail {

/// Room per row in kIndexNames: the longest class name is "IMP-XIII".
inline constexpr std::size_t kIndexNameChars = 8;

constexpr std::array<char, TaxonomyIndex::kRowCount * kIndexNameChars>
render_index_names() {
  std::array<char, TaxonomyIndex::kRowCount * kIndexNameChars> chars{};
  for (const TaxonomyEntry& entry : extended_taxonomy()) {
    if (!entry.name) continue;
    char* out = chars.data() + (entry.serial - 1) * kIndexNameChars;
    *out++ = code(entry.name->machine_type);
    for (char c : code(entry.name->processing_type)) *out++ = c;
    if (entry.name->subtype > 0) {
      *out++ = '-';
      write_roman(entry.name->subtype, out);
    }
  }
  return chars;
}

/// The rendered class names, row by row; unused bytes are '\0'.
inline constexpr std::array<char, TaxonomyIndex::kRowCount * kIndexNameChars>
    kIndexNames = render_index_names();

constexpr std::array<TaxonomyIndex::ClassInfo, TaxonomyIndex::kRowCount>
build_index_rows() {
  std::array<TaxonomyIndex::ClassInfo, TaxonomyIndex::kRowCount> rows{};
  for (const TaxonomyEntry& entry : extended_taxonomy()) {
    TaxonomyIndex::ClassInfo& info = rows[entry.serial - 1];
    info.machine = entry.machine;
    info.serial = static_cast<std::int16_t>(entry.serial);
    info.named = entry.name.has_value();
    info.implementable = entry.implementable;
    info.flexibility =
        static_cast<std::int8_t>(flexibility_score(entry.machine));
    info.interned_name = "NI";
    if (entry.name) {
      info.name = *entry.name;
      const char* slot =
          kIndexNames.data() + (entry.serial - 1) * kIndexNameChars;
      std::size_t length = 0;
      while (length < kIndexNameChars && slot[length] != '\0') ++length;
      info.interned_name = std::string_view(slot, length);
    }
  }
  return rows;
}

inline constexpr std::array<TaxonomyIndex::ClassInfo, TaxonomyIndex::kRowCount>
    kIndexRows = build_index_rows();

/// Table I serial of a canonical name, by arithmetic on the name alone
/// (the serial layout of the generated table: DUP, DMP I-IV, IUP,
/// IAP I-IV, NI x4, IMP I-XVI, ISP I-XVI, USP).  0 when non-canonical.
constexpr int name_serial(const TaxonomicName& name) {
  const int max_subtype =
      subtype_count(name.machine_type, name.processing_type);
  if (max_subtype == 0) return 0;  // no such combination
  if (max_subtype == 1) {
    if (name.subtype != 0) return 0;
  } else if (name.subtype < 1 || name.subtype > max_subtype) {
    return 0;
  }

  switch (name.machine_type) {
    case MachineType::DataFlow:
      return name.processing_type == ProcessingType::UniProcessor
                 ? 1
                 : 1 + name.subtype;  // 2..5
    case MachineType::InstructionFlow:
      switch (name.processing_type) {
        case ProcessingType::UniProcessor:
          return 6;
        case ProcessingType::ArrayProcessor:
          return 6 + name.subtype;  // 7..10
        case ProcessingType::MultiProcessor:
          return 14 + name.subtype;  // 15..30
        case ProcessingType::SpatialProcessor:
          return 30 + name.subtype;  // 31..46
      }
      return 0;
    case MachineType::UniversalFlow:
      return 47;
  }
  return 0;
}

}  // namespace detail

inline constexpr TaxonomyIndex TaxonomyIndex::kInstance{};

constexpr const TaxonomyIndex& TaxonomyIndex::instance() { return kInstance; }

constexpr std::span<const TaxonomyIndex::ClassInfo> TaxonomyIndex::rows()
    const {
  return detail::kIndexRows;
}

constexpr const TaxonomyIndex::ClassInfo* TaxonomyIndex::by_serial(
    int serial) const {
  if (serial < 1 || serial > kRowCount) return nullptr;
  return &detail::kIndexRows[static_cast<std::size_t>(serial - 1)];
}

constexpr const TaxonomyIndex::ClassInfo* TaxonomyIndex::by_name(
    const TaxonomicName& name) const {
  return by_serial(detail::name_serial(name));
}

constexpr const TaxonomyIndex::ClassInfo* TaxonomyIndex::by_structure(
    const MachineClass& mc) const {
  for (const ClassInfo& info : detail::kIndexRows) {
    if (info.machine == mc) return &info;
  }
  return nullptr;
}

/// Convenience accessor mirroring `extended_taxonomy()`.
constexpr const TaxonomyIndex& taxonomy_index() {
  return TaxonomyIndex::instance();
}

/// Allocation-free single-point classify — the hot-path entry the
/// service and sweep layers use.
inline TaxonomyIndex::FastClassification classify_fast(
    const MachineClass& mc) {
  return TaxonomyIndex::instance().classify(mc);
}

}  // namespace mpct
