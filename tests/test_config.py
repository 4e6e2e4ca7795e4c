"""CampaignConfig: round-trips, spec parsing, digests, legacy mapping.

The config object's whole job is to make a campaign reproducible from
plain data, so these tests pin the properties that matter for that:
serialization round-trips are the identity, digests are stable under
key order, malformed input fails loudly (never a silent default), and
the legacy kwarg API produces the *same campaign* (byte-identical
outcome) as the config that replaces it.
"""

import dataclasses
import pathlib
import tomllib

import pytest

from repro.chip import ComponentChip
from repro.core.campaign import FormalCampaign
from repro.orchestrate import (
    CampaignConfig, CampaignOrchestrator, ConfigError, EngineConfig,
    FleetExecutor, SerialExecutor, parse_engines_spec,
    parse_executor_spec, plan_campaign, portfolio,
)
from repro.orchestrate.config import CONFIG_SCHEMA


@pytest.fixture(scope="module")
def small_blocks():
    """Two modules of block C with one seeded defect: 17 jobs, PASS
    and FAIL mixed."""
    chip = ComponentChip(defects={"B2"}, only_blocks=["C"])
    return [("C", chip.blocks[0][1][:2])]


#: every shipped example config
EXAMPLES = sorted((pathlib.Path(__file__).parent.parent / "examples")
                  .glob("*.toml"))


def _config(**overrides):
    overrides.setdefault("sat_conflicts", 500_000)
    overrides.setdefault("bdd_nodes", 5_000_000)
    return CampaignConfig(**overrides)


# ----------------------------------------------------------------------
# spec parsing
# ----------------------------------------------------------------------

class TestExecutorSpec:
    def test_grammar(self):
        assert parse_executor_spec("serial") == ("serial", None)
        assert parse_executor_spec(" fleet :3") == ("fleet", 3)
        assert parse_executor_spec("fleet") == ("fleet", None)
        assert parse_executor_spec("fleet:4") == ("fleet", 4)

    @pytest.mark.parametrize("bad", [
        "quantum", "serial:2", "parallel:0", "parallel:-1",
        "parallel:x", "workstealing:", "", ":4",
        "fleet:0", "fleet:-1", "fleet:x", "fleet:",
    ])
    def test_malformed_specs_name_the_problem(self, bad):
        with pytest.raises(ConfigError, match="spec"):
            parse_executor_spec(bad)

    def test_non_string_rejected(self):
        with pytest.raises(ConfigError, match="must be a string"):
            parse_executor_spec(4)


class TestEnginesSpec:
    def test_grammar(self):
        assert parse_engines_spec("auto") == ("auto",)
        assert parse_engines_spec("kind") == ("kind",)
        assert parse_engines_spec("portfolio") == \
            ("kind", "bdd-combined", "pobdd")
        assert parse_engines_spec("portfolio:auto,kind,bdd-combined") \
            == ("auto", "kind", "bdd-combined")
        assert parse_engines_spec("portfolio: kind , pobdd ") == \
            ("kind", "pobdd")

    @pytest.mark.parametrize("bad", [
        "quantum", "portfolio:", "portfolio:,", "portfolio:quantum",
        "portfolio:kind,kind", "",
    ])
    def test_malformed_specs_name_the_problem(self, bad):
        with pytest.raises(ConfigError):
            parse_engines_spec(bad)


# ----------------------------------------------------------------------
# serialization round-trips and digests
# ----------------------------------------------------------------------

FULL = dict(
    blocks=("A", "C"),
    engines="portfolio:kind,bdd-combined", sat_conflicts=123_456,
    bdd_nodes=None,
    executor="fleet:3", scheduling="module-affinity",
    sat_workspace=False, compile_store=False,
    cache_path="cache.json",
    checkpoint_path="campaign.journal",
)


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        for config in (CampaignConfig(), CampaignConfig(**FULL)):
            again = CampaignConfig.from_dict(config.to_dict())
            assert again == config
            assert again.digest() == config.digest()

    def test_toml_round_trip_is_identity(self):
        for config in (CampaignConfig(), CampaignConfig(**FULL)):
            again = CampaignConfig.from_toml(config.to_toml())
            assert again == config

    def test_load_from_file(self, tmp_path):
        config = CampaignConfig(**FULL)
        path = tmp_path / "campaign.toml"
        path.write_text(config.to_toml())
        assert CampaignConfig.load(str(path)) == config

    @pytest.mark.parametrize("example", EXAMPLES,
                             ids=[path.name for path in EXAMPLES])
    def test_example_config_parses(self, example):
        """Every shipped example loads, and every key it sets is read
        back unchanged — none is dropped or defaulted."""
        config = CampaignConfig.load(str(example))
        written = tomllib.loads(example.read_text())
        parsed = config.to_dict()
        for section, values in written.items():
            for key, value in values.items():
                assert parsed[section][key] == value, (section, key)

    def test_blocks_list_coerced_to_tuple(self):
        assert CampaignConfig(blocks=["A", "B"]).blocks == ("A", "B")

    def test_none_fields_omitted_from_dict(self):
        data = CampaignConfig().to_dict()
        assert "cache" not in data
        assert "checkpoint" not in data
        assert "coi" not in data


class TestDigest:
    def test_stable_under_key_order(self):
        config = CampaignConfig(**FULL)
        data = config.to_dict()
        shuffled = {
            section: dict(reversed(list(values.items())))
            for section, values in reversed(list(data.items()))
        }
        assert CampaignConfig.from_dict(shuffled).digest() == \
            config.digest()

    def test_every_field_moves_the_digest(self):
        base = CampaignConfig(**FULL)
        changed = dict(
            FULL, blocks=("A",), engines="portfolio",
            sat_conflicts=1, bdd_nodes=2, executor="serial",
            scheduling="fifo",
            sat_workspace=True, compile_store=True,
            cache_path="other.json", checkpoint_path="other.journal",
        )
        for field in FULL:
            variant = dataclasses.replace(base, **{field: changed[field]})
            assert variant.digest() != base.digest(), field


# ----------------------------------------------------------------------
# strictness: a typo must never silently fall back to a default
# ----------------------------------------------------------------------

class TestStrictness:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            CampaignConfig.from_dict({"engine": {"spec": "auto"}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            CampaignConfig.from_dict({"execution": {"executr": "serial"}})

    def test_invalid_toml_rejected(self):
        with pytest.raises(ConfigError, match="invalid TOML"):
            CampaignConfig.from_toml("[execution\nexecutor=")

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="cannot read config"):
            CampaignConfig.load("/nonexistent/campaign.toml")

    @pytest.mark.parametrize("kwargs,match", [
        (dict(scheduling="lifo"), "scheduling"),
        (dict(coi_fingerprints="slice"), "coi_fingerprints"),
        (dict(compile_store=1), "compile_store"),
        (dict(sat_conflicts=-1), "sat_conflicts"),
        (dict(sat_workspace=1), "sat_workspace"),
        (dict(bdd_nodes=True), "bdd_nodes"),
        (dict(cache_path=7), "cache_path"),
        (dict(blocks=("A", 3)), "blocks"),
        (dict(blocks="CE"), "bare string"),
    ])
    def test_bad_values_rejected(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            CampaignConfig(**kwargs)

    @pytest.mark.parametrize("toml,key", [
        ("[execution]\nshare_bdd = true\n", "share_bdd"),
        ("[workspace]\nmax_managers = 4\n", r"\[workspace\]"),
        ("[workspace]\nretain_memos = false\n", r"\[workspace\]"),
        ("[workspace]\nmax_manager_nodes = 100000\n", r"\[workspace\]"),
        ("[coi]\nslice = true\n", "slice"),
        ("[compile]\nmax_problems = 64\n", "max_problems"),
        ('[execution]\nexecutor = "parallel:2"\n', "parallel"),
        ('[execution]\nexecutor = "parallel"\n', "parallel"),
        ('[execution]\nexecutor = "workstealing"\n', "workstealing"),
        ('[execution]\nexecutor = "workstealing:2"\n', "workstealing:2"),
        ('[execution]\nexecutor = "work-stealing:2"\n',
         "work-stealing:2"),
        ('[service]\ndb = "verdicts.sqlite"\n', "'db'"),
        ("[sat]\ncluster_limit = 16\n", "cluster_limit"),
        ("[sat]\nmax_sessions = 8\n", "max_sessions"),
        ("[sat]\nmax_session_clauses = 100000\n",
         "max_session_clauses"),
        ("[compile]\nmax_designs = 8\n", "max_designs"),
        ("[cache]\nmax_entries = 10000\n", "max_entries"),
        ("[fleet]\nport = 5555\n", r"\[fleet\]"),
        ("[fleet]\nlease_timeout = 12.5\n", r"\[fleet\]"),
        ("[fleet]\nheartbeat_interval = 0.25\n", r"\[fleet\]"),
        ('[fleet]\nlauncher = "ssh:riga,tallinn"\n', r"\[fleet\]"),
        ('[execution]\nportfolio = "static"\n', "'portfolio'"),
        ('[execution]\nportfolio = "adaptive"\n', "'portfolio'"),
    ], ids=["share_bdd", "workspace", "workspace-retain_memos",
            "workspace-max_manager_nodes", "coi-slice", "max_problems",
            "parallel", "parallel-bare", "workstealing",
            "workstealing-n", "work-stealing-n", "service-db",
            "sat-cluster_limit", "sat-max_sessions",
            "sat-max_session_clauses", "compile-max_designs",
            "cache-max_entries",
            "fleet-port", "fleet-lease_timeout",
            "fleet-heartbeat_interval", "fleet-launcher",
            "execution-portfolio-static", "execution-portfolio-adaptive"])
    def test_removed_keys_rejected(self, toml, key):
        """Configs using a removed mode fail loudly, naming it, instead
        of silently running without it — given as TOML text or as its
        parsed tables through ``from_dict``."""
        with pytest.raises(ConfigError, match=key):
            CampaignConfig.from_toml(toml)
        with pytest.raises(ConfigError, match=key):
            CampaignConfig.from_dict(tomllib.loads(toml))

    @pytest.mark.parametrize("form", ["toml", "dict"])
    @pytest.mark.parametrize("section,key,value", [
        ("campaign", "lint", True),
        ("engines", "max_bound", 60),
        ("engines", "max_k", 40),
        ("engines", "unique_states", True),
        ("engines", "num_window_vars", 2),
    ])
    def test_restated_defaults_removed(self, section, key, value, form):
        """The keys that restated a default nothing overrode are gone:
        given in TOML or through ``from_dict``, each is a ConfigError
        naming it.  Planning always lints, and the engine knobs are
        the ``EngineConfig`` defaults (``portfolio(..., max_k=...)``
        changes them through ``engines=``)."""
        with pytest.raises(ConfigError, match=f"'{key}'"):
            if form == "toml":
                CampaignConfig.from_toml(
                    f"[{section}]\n{key} = {str(value).lower()}\n")
            else:
                CampaignConfig.from_dict({section: {key: value}})

    def test_fleet_worker_command_removed(self, tmp_path, capsys):
        """``python -m repro fleet worker`` is gone: a usage error."""
        from repro.cli import main
        path = tmp_path / "campaign.toml"
        path.write_text(CampaignConfig().to_toml())
        with pytest.raises(SystemExit) as exited:
            main(["fleet", "worker", "--config", str(path)])
        assert exited.value.code == 2
        assert "invalid choice: 'fleet'" in capsys.readouterr().err

    def test_schema_covers_every_field(self):
        mapped = sorted(
            field for keys in CONFIG_SCHEMA.values()
            for field in keys.values()
        )
        declared = sorted(
            field.name for field in dataclasses.fields(CampaignConfig)
        )
        assert mapped == declared


# ----------------------------------------------------------------------
# component builders
# ----------------------------------------------------------------------

class TestBuilders:
    def test_default_engines_match_legacy_default(self):
        """The default campaign: the induction-then-BDD ladder with
        the classic budgets and the ``EngineConfig`` tuning defaults."""
        assert CampaignConfig().build_engines() == tuple(
            EngineConfig(method=method, max_bound=60, max_k=40,
                         unique_states=True, num_window_vars=2,
                         sat_conflicts=200_000, bdd_nodes=2_000_000)
            for method in ("kind", "bdd-combined"))

    def test_engine_knobs_reach_every_stage(self):
        """The budgets reach every stage; the tuning knobs are the
        ``EngineConfig`` defaults, as ``portfolio`` builds them."""
        engines = _config(engines="portfolio:kind,pobdd").build_engines()
        assert [config.method for config in engines] == ["kind", "pobdd"]
        assert engines == portfolio("kind", "pobdd", sat_conflicts=500_000,
                                    bdd_nodes=5_000_000)
        for config in engines:
            assert isinstance(config, EngineConfig)
            assert config.sat_conflicts == 500_000
            assert config.bdd_nodes == 5_000_000

    def test_executor_kinds(self):
        assert isinstance(_config().build_executor(), SerialExecutor)
        fleet = _config(executor="fleet").build_executor()
        assert isinstance(fleet, FleetExecutor)
        assert fleet.scheduling.name == "fifo"
        assert fleet.launcher.name == "local"
        fleet = _config(executor="fleet:2",
                        scheduling="module-affinity").build_executor()
        assert isinstance(fleet, FleetExecutor)
        assert fleet.workers == 2
        assert fleet.scheduling.name == "module-affinity"

    @pytest.mark.parametrize("preset,executor,workers,scheduling", [
        ("smoke", SerialExecutor, None, None),
        ("nightly", FleetExecutor, 2, "module-affinity"),
        ("full", FleetExecutor, 4, "module-affinity"),
    ])
    def test_preset_executors(self, preset, executor, workers,
                              scheduling):
        """Every preset builds the executor it names: serial for
        smoke, a forked fleet of its size with its scheduling for the
        others."""
        from repro.cli import resolve_config_path
        config = CampaignConfig.load(resolve_config_path(f"preset:{preset}"))
        built = config.build_executor()
        assert type(built) is executor
        if executor is FleetExecutor:
            assert built.workers == workers
            assert built.scheduling.name == scheduling
            assert built.launcher.name == "local"

    def test_cache_and_checkpoint(self, tmp_path):
        config = _config(cache_path=str(tmp_path / "cache.sqlite"),
                         checkpoint_path=str(tmp_path / "j.journal"))
        cache = config.build_cache()
        assert cache is not None and cache.path == config.cache_path
        assert config.build_checkpoint() is not None
        assert CampaignConfig().build_cache() is None
        assert CampaignConfig().build_checkpoint() is None


# ----------------------------------------------------------------------
# the acceptance criterion: one config, one campaign — whatever the
# executor, and round-tripped through serialization
# ----------------------------------------------------------------------

class TestConfigDrivenCampaign:
    @pytest.mark.parametrize("executor_spec", [
        "serial", "fleet:2",
    ])
    def test_round_tripped_config_reproduces_campaign(
            self, small_blocks, executor_spec):
        config = _config(executor=executor_spec,
                         engines="portfolio:kind,bdd-combined")
        reference = CampaignOrchestrator(
            small_blocks, config=config).run()
        revived = CampaignConfig.from_dict(config.to_dict())
        again = CampaignOrchestrator(small_blocks, config=revived).run()
        assert again.canonical_bytes() == reference.canonical_bytes()
        assert again.stats["config_digest"] == \
            reference.stats["config_digest"]

    def test_report_stamped_with_config_digest(self, small_blocks):
        config = _config()
        report = CampaignOrchestrator(small_blocks, config=config).run()
        assert report.stats["config_digest"] == config.digest()

    def test_component_override_wins_over_config(self, small_blocks):
        config = _config(executor="fleet:2")
        orchestrator = CampaignOrchestrator(
            small_blocks, config=config, executor=SerialExecutor()
        )
        assert isinstance(orchestrator.executor, SerialExecutor)

    def test_overrides_recorded_in_stats(self, small_blocks):
        """A stamped digest must not be mistaken for the whole story
        when component objects replaced the config's specs."""
        pure = CampaignOrchestrator(small_blocks, config=_config()).run()
        assert pure.stats["config_overrides"] == []
        overridden = CampaignOrchestrator(
            small_blocks, config=_config(),
            executor=SerialExecutor(), engines=_config().build_engines(),
        ).run()
        assert overridden.stats["config_overrides"] == \
            ["engines", "executor"]

    def test_scope_mismatch_recorded_as_override(self, small_blocks):
        """A config naming blocks ('C',) run over some other scope must
        not claim the digest fully describes the run."""
        config = _config(blocks=("C",))
        matching = CampaignOrchestrator(small_blocks, config=config)
        assert "blocks" not in matching.config_overrides
        mismatched = CampaignOrchestrator(
            [("X", small_blocks[0][1])], config=config)
        assert "blocks" in mismatched.config_overrides


# ----------------------------------------------------------------------
# legacy kwargs: accepted, mapped, soft-deprecated — same campaign
# ----------------------------------------------------------------------

class TestLegacyMapping:
    @pytest.mark.parametrize("kwargs", [
        dict(method="kind"), dict(max_k=30),
        dict(budget_factory=lambda: None), dict(lint=False),
    ], ids=["method", "max_k", "budget_factory", "lint"])
    def test_removed_kwargs_raise(self, small_blocks, kwargs):
        """The paper-era kwargs are gone: their budgets and engines
        live in ``config=CampaignConfig(...)`` or ``engines=``, and
        planning always lints."""
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            FormalCampaign(small_blocks, **kwargs)

    def test_orchestrator_lint_kwarg_removed(self, small_blocks):
        with pytest.raises(TypeError, match="lint"):
            CampaignOrchestrator(small_blocks, lint=False)
        with pytest.raises(TypeError, match="lint"):
            plan_campaign(small_blocks, CampaignConfig().build_engines(),
                          lint=False)
        assert not hasattr(CampaignOrchestrator, "DEFAULT_ENGINES")

    def test_facade_defaults_share_config_defaults(self, small_blocks):
        campaign = FormalCampaign(small_blocks)
        assert campaign.config == CampaignConfig()

    def test_engines_tuple_still_accepted(self, small_blocks):
        engines = (EngineConfig(method="kind", sat_conflicts=500_000,
                                bdd_nodes=5_000_000),)
        report = FormalCampaign(small_blocks, engines=engines).run()
        assert report.stats["engines"] == ["kind"]
