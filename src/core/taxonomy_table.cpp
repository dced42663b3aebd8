#include "core/taxonomy_table.hpp"

#include <algorithm>

#include "core/taxonomy_index.hpp"

namespace mpct {

std::string TaxonomyEntry::comment() const {
  return name ? to_string(*name) : std::string("NI");
}

const TaxonomyEntry* find_entry(const TaxonomicName& name) {
  const TaxonomyIndex::ClassInfo* info =
      TaxonomyIndex::instance().by_name(name);
  return info ? find_entry(info->serial) : nullptr;
}

const TaxonomyEntry* find_entry(int serial) {
  const auto& table = extended_taxonomy();
  if (serial < 1 || serial > static_cast<int>(table.size())) return nullptr;
  return &table[static_cast<std::size_t>(serial - 1)];
}

const TaxonomyEntry* find_entry(const MachineClass& mc) {
  const TaxonomyIndex::ClassInfo* info =
      TaxonomyIndex::instance().by_structure(mc);
  return info ? find_entry(info->serial) : nullptr;
}

int implementable_class_count() {
  const auto& table = extended_taxonomy();
  return static_cast<int>(
      std::count_if(table.begin(), table.end(),
                    [](const TaxonomyEntry& e) { return e.implementable; }));
}

}  // namespace mpct
