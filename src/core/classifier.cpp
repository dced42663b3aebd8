#include "core/classifier.hpp"

#include "core/taxonomy_index.hpp"

namespace mpct {

Classification classify(const MachineClass& mc) {
  // One table load in the index, which the compiler precomputed from the
  // rules over the whole structural key space.
  const TaxonomyIndex::FastClassification fast =
      TaxonomyIndex::instance().classify(mc);
  if (fast.info) return {fast.info->name, true, ""};
  return {std::nullopt, false, std::string(fast.note)};
}

std::optional<MachineClass> canonical_class(const TaxonomicName& name) {
  const TaxonomyIndex::ClassInfo* info =
      TaxonomyIndex::instance().by_name(name);
  if (!info) return std::nullopt;
  return info->machine;
}

}  // namespace mpct
