// CDM algebra (paper §3).
//
// An algebra is two sets of {RefId, IC} elements:
//   source — compiled dependencies: every scion the CDM passed through plus
//            every extra converging scion (ScionsTo) discovered on the way;
//   target — every stub the CDM was forwarded along.
//
// *Matching* cancels elements present in both sets — a dependency (scion) is
// resolved once the detection traversed the very reference it represents
// (stub of the same RefId). Cancellation demands equal invocation counters:
// a mismatch means the mutator used that reference between the two process
// snapshots being combined, so the detection must abort (§3.2 safety rule ii).
//
// A cycle is proven when matching yields {{} → {}} on delivery.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/net/message.h"

namespace adgc {

/// Sorted-unique element set keyed by RefId.
class AlgebraSet {
 public:
  AlgebraSet() = default;
  explicit AlgebraSet(std::vector<AlgebraElem> elems);

  /// Outcome of inserting an element.
  enum class Insert {
    kAdded,     // new element
    kPresent,   // identical element already there
    kConflict,  // same RefId, different IC — mutator activity detected
  };
  Insert insert(AlgebraElem e);

  /// Pre-sizes the set so `n` elements fit without reallocating.
  void reserve(std::size_t n) { elems_.reserve(n); }
  /// Releases the sorted elements (the set is left empty).
  std::vector<AlgebraElem> take() { return std::exchange(elems_, {}); }

  bool contains(RefId ref) const;
  const AlgebraElem* find(RefId ref) const;
  std::size_t size() const { return elems_.size(); }
  bool empty() const { return elems_.empty(); }
  const std::vector<AlgebraElem>& elems() const { return elems_; }

  friend bool operator==(const AlgebraSet&, const AlgebraSet&) = default;

 private:
  std::vector<AlgebraElem> elems_;  // sorted by ref
};

struct Algebra {
  AlgebraSet source;
  AlgebraSet target;

  friend bool operator==(const Algebra&, const Algebra&) = default;

  std::string to_string() const;
};

/// Verdict of matching an algebra. The residual sets themselves (unresolved
/// dependencies, traversed stubs not yet depended upon) are never built:
/// the detector only asks whether they are empty.
struct MatchResult {
  bool ic_conflict = false;     // same RefId in both sets with different ICs
  bool residual_empty = false;  // every element cancelled against the other set

  bool cycle_found() const { return !ic_conflict && residual_empty; }
};

MatchResult match(const Algebra& alg);

/// Wire conversion. algebra_to_msg moves the sets into the message.
Algebra algebra_from_msg(const CdmMsg& msg);
void algebra_to_msg(Algebra alg, CdmMsg& msg);

}  // namespace adgc
