"""Cone-of-influence content addressing (`repro.formal.coi`).

The load-bearing property: an assertion's cone digest depends on
exactly the logic in its support cone.  A defect *outside* the cone
leaves the digest — hence the job fingerprint, hence the cached
verdict — unchanged; a defect *inside* changes it.  The transition
system built from the cone slice yields the same verdict as the
full-module compile, and a whole campaign run with cone fingerprints
stays byte-identical to the legacy module-digest run.
"""


import pytest

from repro.core.stereotypes import stereotype_vunits
from repro.formal.budget import ResourceBudget
from repro.formal.coi import cone_digest, index_module
from repro.formal.engine import ModelChecker
from repro.orchestrate import (
    CampaignConfig, CampaignOrchestrator, ConfigError, EngineConfig,
    plan_campaign,
)
from repro.orchestrate.cache import remove_store
from repro.orchestrate.planner import COI_FINGERPRINT_MODES
from repro.psl.compile import compile_assertion, compile_sliced_assertion
from repro.rtl.inject import make_verifiable
from repro.scenario.family import FamilySpec, generate_family
from repro.scenario.mutate import apply_defect, sites_for_family
from repro.scenario.sweep import record_digest, run_sweep

#: one small family module with one datapath defect: wrong-rotate
#: touches a handful of cones and leaves the rest bit-for-bit alone
SPEC = FamilySpec(blocks=1, modules_per_block=1, datapath_width=4,
                  pipeline_depth=1, error_report_width=2)


def _engines(**overrides):
    overrides.setdefault("sat_conflicts", 500_000)
    overrides.setdefault("bdd_nodes", 5_000_000)
    return (EngineConfig(**overrides),)


def _assertion_digests(module):
    """(vunit name, assert name) -> cone digest over all stereotypes."""
    return {
        (vunit.name, assert_name): cone_digest(module, vunit, assert_name)
        for vunit in stereotype_vunits(module)
        for assert_name, _ in vunit.asserted()
    }


@pytest.fixture(scope="module")
def golden_and_mutant():
    selected = sites_for_family(
        generate_family(SPEC), classes=["wrong-rotate"],
        sites_per_module=1, seed=SPEC.seed,
    )
    assert selected, "family must yield at least one wrong-rotate site"
    _, module, site = selected[0]
    return make_verifiable(module), make_verifiable(apply_defect(module, site))


class TestConeDigest:
    def test_digest_deterministic(self, golden_and_mutant):
        golden, _ = golden_and_mutant
        assert _assertion_digests(golden) == _assertion_digests(golden)

    def test_mutation_splits_digests_by_cone(self, golden_and_mutant):
        """The central claim: a one-site defect changes the digest of
        exactly the assertions whose cone reads the mutated logic, and
        no others — both sides must be non-empty for a datapath site."""
        golden, mutant = golden_and_mutant
        before = _assertion_digests(golden)
        after = _assertion_digests(mutant)
        assert before.keys() == after.keys()
        changed = {key for key in before if before[key] != after[key]}
        unchanged = set(before) - changed
        assert changed, "the defect must land inside at least one cone"
        assert unchanged, "the defect must stay outside at least one cone"

    def test_shared_index_matches_oneshot_helper(self, golden_and_mutant):
        golden, _ = golden_and_mutant
        index = index_module(golden)
        for vunit in stereotype_vunits(golden):
            for assert_name, _ in vunit.asserted():
                assert index.info(vunit, assert_name).digest == \
                    cone_digest(golden, vunit, assert_name)


class TestSliceCompile:
    def test_slice_verdicts_match_full_compile(self, verifiable_leaf,
                                               budget):
        for vunit in stereotype_vunits(verifiable_leaf):
            for assert_name, _ in vunit.asserted():
                full = compile_assertion(verifiable_leaf, vunit,
                                         assert_name)
                sliced = compile_sliced_assertion(verifiable_leaf, vunit,
                                                  assert_name)
                assert sliced.size_stats()["latches"] <= \
                    full.size_stats()["latches"]
                want = ModelChecker(full, budget).check(
                    method="bdd-forward")
                got = ModelChecker(sliced, budget).check(
                    method="bdd-forward")
                assert got.status == want.status, \
                    f"{vunit.name}.{assert_name}"


class TestPlannerFingerprints:
    def test_unknown_mode_rejected(self, verifiable_leaf):
        with pytest.raises(ValueError, match="coi_fingerprints"):
            plan_campaign([("L", [verifiable_leaf])], _engines(),
                          coi_fingerprints="quantum")
        assert COI_FINGERPRINT_MODES == ("module", "cone")

    def test_cone_mode_rekeys_every_job(self, verifiable_leaf):
        blocks = [("L", [verifiable_leaf])]
        module_plan = plan_campaign(blocks, _engines())
        cone_plan = plan_campaign(blocks, _engines(),
                                  coi_fingerprints="cone")
        assert all(job.cone_digest == "" for job in module_plan.jobs)
        assert all(job.cone_digest for job in cone_plan.jobs)
        for before, after in zip(module_plan.jobs, cone_plan.jobs):
            assert before.fingerprint != after.fingerprint


class TestVerdictReuse:
    def test_untouched_cone_jobs_hit_the_golden_cache(
            self, golden_and_mutant, tmp_path):
        """Warm the cache with the *golden* module, then run the
        mutant: every assertion whose cone the defect missed must be a
        cache hit by construction — the exact split the digests
        predict."""
        golden, mutant = golden_and_mutant
        changed = {
            key for key, digest in _assertion_digests(golden).items()
            if _assertion_digests(mutant)[key] != digest
        }
        config = CampaignConfig(coi_fingerprints="cone",
                                cache_path=str(tmp_path / "cache.sqlite"))
        CampaignOrchestrator([("G", [golden])], engines=_engines(),
                             config=config).run()
        report = CampaignOrchestrator([("G", [mutant])],
                                      engines=_engines(),
                                      config=config).run()
        coi = report.stats["coi"]
        assert coi["fingerprints"] == "cone"
        assert coi["jobs_executed"] == len(changed)
        assert coi["cone_hits"] == report.stats["jobs"] - len(changed)
        assert coi["cone_hits"] > 0

    def test_module_mode_reports_zero_cone_hits(self, verifiable_leaf,
                                                tmp_path):
        config = CampaignConfig(
            cache_path=str(tmp_path / "cache.sqlite"))
        blocks = [("L", [verifiable_leaf])]
        CampaignOrchestrator(blocks, engines=_engines(),
                             config=config).run()
        report = CampaignOrchestrator(blocks, engines=_engines(),
                                      config=config).run()
        coi = report.stats["coi"]
        assert coi["fingerprints"] == "module"
        assert coi["cone_hits"] == 0          # hits exist, cones don't
        assert report.stats["cache_hits"] == report.stats["jobs"]


class TestWarmSweep:
    def test_warm_golden_executes_fewer_jobs_same_digest(self, tmp_path):
        config = CampaignConfig(coi_fingerprints="cone",
                                cache_path=str(tmp_path / "cache.sqlite"))
        kwargs = dict(config=config, classes=["wrong-rotate"],
                      sites_per_module=1)
        cold_record, _ = run_sweep(SPEC, **kwargs)
        remove_store(config.cache_path)
        warm_record, _ = run_sweep(SPEC, warm_golden=True, **kwargs)

        assert record_digest(warm_record) == record_digest(cold_record)
        cold, warm = cold_record["timing"], warm_record["timing"]
        assert cold["golden"] is None
        assert warm["golden"]["jobs"] > 0
        assert warm["cone_hits"] > 0
        assert warm["jobs_executed"] < cold["jobs_executed"]


class TestCoiConfig:
    def test_toml_round_trip(self):
        config = CampaignConfig.from_toml('[coi]\nfingerprints = "cone"\n')
        assert config.coi_fingerprints == "cone"
        again = CampaignConfig.from_toml(config.to_toml())
        assert again.digest() == config.digest()

    def test_absent_section_keeps_legacy_digest(self):
        """Pre-COI configs must not change identity: ``None`` defaults
        serialize to nothing, so stamped digests stay put."""
        assert CampaignConfig(coi_fingerprints=None).digest() == \
            CampaignConfig().digest()

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError, match="coi_fingerprints"):
            CampaignConfig(coi_fingerprints="quantum")
