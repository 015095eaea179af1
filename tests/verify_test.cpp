// Verification-subsystem tests: the placement oracle and the ILP certifier
// must (a) pass legitimate flow outputs and (b) flag every injected
// corruption — each mutation here is a kill-switch proving the oracle can
// actually convict the failure class it claims to cover.

#include <gtest/gtest.h>

#include <algorithm>

#include "mth/flows/flow.hpp"
#include "mth/rap/rclegal.hpp"
#include "mth/verify/certifier.hpp"
#include "mth/verify/checker.hpp"

namespace mth::verify {
namespace {

const flows::PreparedCase& small_case() {
  static const flows::PreparedCase pc = [] {
    flows::FlowOptions opt;
    opt.scale = 0.04;
    return flows::prepare_case(synth::spec_by_name("aes_300"), opt);
  }();
  return pc;
}

rap::RapOptions rap_options(const flows::PreparedCase& pc) {
  rap::RapOptions ro;
  ro.n_min_pairs = pc.n_min_pairs;
  ro.width_library = pc.original_library.get();
  ro.ilp.time_limit_s = 10;
  return ro;
}

/// Shared legitimately-solved RAP result (solved once; tests mutate copies).
const rap::RapResult& solved() {
  static const rap::RapResult r =
      rap::solve_rap(small_case().initial, rap_options(small_case()));
  return r;
}

bool has_kind(const CheckReport& rep, ViolationKind k) {
  return std::any_of(rep.violations.begin(), rep.violations.end(),
                     [&](const Violation& v) { return v.kind == k; });
}

// --- placement oracle -------------------------------------------------------

TEST(Checker, PassesLegitimatePreparedPlacement) {
  const CheckReport rep = check_placement(small_case().initial);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(rep.instances_checked,
            small_case().initial.netlist.num_instances());
}

TEST(Checker, PassesLegalizedPlacementWithFences) {
  Design d = small_case().initial;
  const auto lr = rap::rc_legalize(d, solved().assignment, {});
  ASSERT_TRUE(lr.success);
  CheckOptions co;
  co.assignment = &solved().assignment;
  const CheckReport rep = check_placement(d, co);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(Checker, FlagsInjectedOverlap) {
  Design d = small_case().initial;
  // Teleport instance 1 onto instance 0 — same row, same x.
  d.netlist.instance(1).pos = d.netlist.instance(0).pos;
  const CheckReport rep = check_placement(d);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_kind(rep, ViolationKind::Overlap)) << rep.summary();
}

TEST(Checker, FlagsMinorityOutsideFence) {
  Design d = small_case().initial;
  const RowAssignment& ra = solved().assignment;
  const auto lr = rap::rc_legalize(d, ra, {});
  ASSERT_TRUE(lr.success);
  // Move one minority cell's y into a majority pair (keep row alignment).
  const InstId tall = solved().minority_cells.front();
  int maj_pair = -1;
  for (int p = 0; p < ra.num_pairs(); ++p) {
    if (!ra.is_minority_pair(p)) {
      maj_pair = p;
      break;
    }
  }
  ASSERT_GE(maj_pair, 0);
  d.netlist.instance(tall).pos.y = d.floorplan.pair_lower(maj_pair).y;
  CheckOptions co;
  co.assignment = &ra;
  const CheckReport rep = check_placement(d, co);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_kind(rep, ViolationKind::MinorityOutsideFence))
      << rep.summary();
}

TEST(Checker, FlagsMajorityInsideFence) {
  Design d = small_case().initial;
  const RowAssignment& ra = solved().assignment;
  const auto lr = rap::rc_legalize(d, ra, {});
  ASSERT_TRUE(lr.success);
  InstId shorty = kInvalidId;
  for (InstId i = 0; i < d.netlist.num_instances(); ++i) {
    if (!d.is_minority(i)) {
      shorty = i;
      break;
    }
  }
  ASSERT_NE(shorty, kInvalidId);
  int min_pair = -1;
  for (int p = 0; p < ra.num_pairs(); ++p) {
    if (ra.is_minority_pair(p)) {
      min_pair = p;
      break;
    }
  }
  ASSERT_GE(min_pair, 0);
  d.netlist.instance(shorty).pos.y = d.floorplan.pair_lower(min_pair).y;
  CheckOptions co;
  co.assignment = &ra;
  const CheckReport rep = check_placement(d, co);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_kind(rep, ViolationKind::MajorityInsideFence))
      << rep.summary();
}

TEST(Checker, FlagsOverCapacityRow) {
  Design d = small_case().initial;
  // Cram every cell into instance 0's row: hundreds of rows' worth of width
  // cannot fit one row span, so capacity must trip (and, by pigeonhole,
  // overlaps too — but RowOverCapacity is the kind under test).
  const Dbu y0 = d.netlist.instance(0).pos.y;
  for (InstId i = 0; i < d.netlist.num_instances(); ++i) {
    d.netlist.instance(i).pos.y = y0;
  }
  const CheckReport rep = check_placement(d);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_kind(rep, ViolationKind::RowOverCapacity)) << rep.summary();
}

TEST(Checker, FlagsOffGridAndOffRow) {
  Design d = small_case().initial;
  d.netlist.instance(0).pos.x += 1;  // off the site grid
  d.netlist.instance(2).pos.y += 3;  // off the row boundary
  const CheckReport rep = check_placement(d);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_kind(rep, ViolationKind::OffSiteGrid)) << rep.summary();
  EXPECT_TRUE(has_kind(rep, ViolationKind::OffRowBoundary)) << rep.summary();
}

TEST(Checker, TruncatesButCounts) {
  Design d = small_case().initial;
  for (InstId i = 0; i < d.netlist.num_instances(); ++i) {
    d.netlist.instance(i).pos.x += 1;
  }
  CheckOptions co;
  co.max_violations = 5;
  const CheckReport rep = check_placement(d, co);
  EXPECT_EQ(static_cast<int>(rep.violations.size()), 5);
  EXPECT_GE(rep.total_violations, d.netlist.num_instances());
}

// --- ILP certifier ----------------------------------------------------------

TEST(Certifier, CertifiesLegitimateResult) {
  CertifyOptions co;
  co.require_certificate = true;
  const CertifyReport rep =
      certify_rap(small_case().initial, solved(), rap_options(small_case()), co);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_TRUE(rep.feasible);
  EXPECT_TRUE(rep.objective_ok);
  EXPECT_TRUE(rep.certificate_ok);
  ASSERT_TRUE(rep.bound_available);
  // The bound must be a true lower bound, and meaningfully close.
  EXPECT_LE(rep.dual_bound, rep.reported_objective * (1 + 1e-9));
  EXPECT_GE(rep.certified_gap, 0.0);
  EXPECT_LE(rep.certified_gap, rep.gap_window_used);
}

TEST(Certifier, FlagsTamperedObjective) {
  rap::RapResult r = solved();
  r.objective += 1000.0;  // claim a cost the assignment does not produce
  const CertifyReport rep =
      certify_rap(small_case().initial, r, rap_options(small_case()));
  EXPECT_FALSE(rep.ok());
  EXPECT_FALSE(rep.objective_ok) << rep.summary();
}

TEST(Certifier, FlagsClusterOnClosedPair) {
  rap::RapResult r = solved();
  int closed = -1;
  for (int p = 0; p < r.assignment.num_pairs(); ++p) {
    if (!r.assignment.is_minority_pair(p)) {
      closed = p;
      break;
    }
  }
  ASSERT_GE(closed, 0);
  r.cluster_pair[0] = closed;  // linking (Eq. 4) violated
  const CertifyReport rep =
      certify_rap(small_case().initial, r, rap_options(small_case()));
  EXPECT_FALSE(rep.ok());
  EXPECT_FALSE(rep.feasible) << rep.summary();
}

TEST(Certifier, FlagsWrongMinorityRowCount) {
  rap::RapResult r = solved();
  int closed = -1;
  for (int p = 0; p < r.assignment.num_pairs(); ++p) {
    if (!r.assignment.is_minority_pair(p)) {
      closed = p;
      break;
    }
  }
  ASSERT_GE(closed, 0);
  r.assignment.pair_is_minority[static_cast<std::size_t>(closed)] = true;
  const CertifyReport rep =
      certify_rap(small_case().initial, r, rap_options(small_case()));
  EXPECT_FALSE(rep.ok());  // Eq. 5: one pair too many
  EXPECT_FALSE(rep.feasible) << rep.summary();
}

TEST(Certifier, FlagsTamperedCertificateCosts) {
  rap::RapResult r = solved();
  ASSERT_NE(r.certificate, nullptr);
  auto cert = std::make_shared<rap::RapCertificate>(*r.certificate);
  cert->model.add_var(0.0, 1.0, 0.0);  // certificate no longer matches
  r.certificate = std::move(cert);
  const CertifyReport rep =
      certify_rap(small_case().initial, r, rap_options(small_case()));
  EXPECT_FALSE(rep.ok());
  EXPECT_FALSE(rep.certificate_ok) << rep.summary();
}

TEST(Certifier, MissingCertificateOnlyFailsWhenRequired) {
  rap::RapResult r = solved();
  r.certificate = nullptr;
  const CertifyReport lax =
      certify_rap(small_case().initial, r, rap_options(small_case()));
  EXPECT_TRUE(lax.ok()) << lax.summary();
  EXPECT_FALSE(lax.bound_available);
  CertifyOptions co;
  co.require_certificate = true;
  const CertifyReport strict =
      certify_rap(small_case().initial, r, rap_options(small_case()), co);
  EXPECT_FALSE(strict.ok());
}

// --- flow hook --------------------------------------------------------------

TEST(FlowVerify, FullFlowPassesWithVerifyOn) {
  flows::FlowOptions opt;
  opt.scale = 0.04;
  opt.verify = true;
  const flows::PreparedCase pc =
      flows::prepare_case(synth::spec_by_name("aes_300"), opt);
  // F5 exercises the RAP certification + rc-legalize + finalize hooks.
  EXPECT_NO_THROW(flows::run_flow(pc, flows::FlowId::F5, opt, true, false));
}

// --- sharded certificates ----------------------------------------------------

rap::RapOptions sharded_options() {
  rap::RapOptions ro = rap_options(small_case());
  ro.shards = 4;
  return ro;
}

/// Shared sharded solve (solved once; tests mutate copies).
const rap::RapResult& sharded_solved() {
  static const rap::RapResult r =
      rap::solve_rap(small_case().initial, sharded_options());
  return r;
}

TEST(Certifier, CertifiesShardedResultViaBandAggregation) {
  const rap::RapResult& r = sharded_solved();
  ASSERT_FALSE(r.bands.empty());
  CertifyOptions co;
  co.require_certificate = true;
  const CertifyReport rep =
      certify_rap(small_case().initial, r, sharded_options(), co);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_TRUE(rep.feasible);
  EXPECT_TRUE(rep.objective_ok);
  EXPECT_TRUE(rep.certificate_ok);
  EXPECT_TRUE(rep.bound_available);
  // The aggregated decomposition bound must still bracket the objective
  // from below within the window; repair may push the gap negative.
  EXPECT_LE(rep.certified_gap, rep.gap_window_used);
}

TEST(Certifier, FlagsTamperedShardedObjective) {
  rap::RapResult r = sharded_solved();
  ASSERT_FALSE(r.bands.empty());
  r.objective = r.objective * 1.5 + 100.0;
  const CertifyReport rep =
      certify_rap(small_case().initial, r, sharded_options());
  EXPECT_FALSE(rep.objective_ok);
  EXPECT_FALSE(rep.ok());
}

TEST(Certifier, FlagsBrokenBandQuotaPartition) {
  rap::RapResult r = sharded_solved();
  ASSERT_FALSE(r.bands.empty());
  r.bands[0].n_min_pairs += 1;  // quota sum no longer equals N_minR
  const CertifyReport rep =
      certify_rap(small_case().initial, r, sharded_options());
  EXPECT_FALSE(rep.certificate_ok);
  EXPECT_FALSE(rep.ok());
}

TEST(Certifier, FlagsBandCertificateQuotaMismatch) {
  rap::RapResult r = sharded_solved();
  ASSERT_GE(r.bands.size(), 2u);
  // Keep the quota sum intact but shift one pair between two certified
  // bands: each band's Eq. 5 row rhs now disagrees with its claimed quota.
  std::size_t a = r.bands.size(), b = r.bands.size();
  for (std::size_t i = 0; i < r.bands.size(); ++i) {
    if (r.bands[i].certificate != nullptr && r.bands[i].n_min_pairs >= 1) {
      if (a == r.bands.size()) {
        a = i;
      } else if (b == r.bands.size()) {
        b = i;
      }
    }
  }
  ASSERT_LT(a, r.bands.size());
  ASSERT_LT(b, r.bands.size());
  r.bands[a].n_min_pairs += 1;
  r.bands[b].n_min_pairs -= 1;
  const CertifyReport rep =
      certify_rap(small_case().initial, r, sharded_options());
  EXPECT_FALSE(rep.certificate_ok);
  EXPECT_FALSE(rep.ok());
}

}  // namespace
}  // namespace mth::verify
