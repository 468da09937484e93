import hashlib
import json

import pytest

from cofinitary.builder import (
    BuildError,
    build,
    build_variant_family,
    hit_goal,
    verify_cofinitary,
    verify_variant,
)
from cofinitary.cli import encode_report
from cofinitary.evaluation import GroundRep, zshift
from cofinitary.extension import ContractViolation, ExtensionCertificate
from cofinitary.poset import Condition, PosetMode, leq
from cofinitary.words import single


class TestBuild:
    def test_tiny_build(self):
        report = build(PosetMode.COFINITARY, [0], point_budget=3, word_budget=1, seed=0)
        pm = report.final.s.get(0)
        assert pm.domain() >= {0, 1, 2} and pm.image() >= {0, 1, 2}
        assert pm.is_injective()
        assert single(0) in report.frozen_fix
        assert verify_cofinitary(report) == []

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            build(PosetMode.COFINITARY, [0], point_budget=0, word_budget=1, seed=0)
        with pytest.raises(ValueError):
            build(PosetMode.COFINITARY, [], point_budget=1, word_budget=1, seed=0)

    def test_stages_strictly_increase(self):
        report = build(PosetMode.COFINITARY, [0, 1], point_budget=6, word_budget=2, seed=1)
        stages = [st for _, st, _ in report.goal_log]
        assert stages == sorted(stages) and len(set(stages)) == len(stages)

    def test_deterministic(self):
        a = build(PosetMode.COFINITARY, [0, 1], point_budget=8, word_budget=2, seed=9)
        b = build(PosetMode.COFINITARY, [0, 1], point_budget=8, word_budget=2, seed=9)
        assert encode_report(a.to_json()) == encode_report(b.to_json())

    def test_seed_changes_schedule(self):
        a = build(PosetMode.COFINITARY, [0, 1], point_budget=8, word_budget=3, seed=1)
        b = build(PosetMode.COFINITARY, [0, 1], point_budget=8, word_budget=3, seed=2)
        assert [g for g, _, _ in a.goal_log] != [g for g, _, _ in b.goal_log]

    def test_chain_log_extends_previous(self):
        report = build(PosetMode.COFINITARY, [0, 1], point_budget=6, word_budget=2, seed=4)
        # replay: the final condition extends the empty one and respects the log
        assert leq(report.final, Condition(mode=PosetMode.COFINITARY))

    def test_corrupted_report_detected(self):
        report = build(PosetMode.COFINITARY, [0], point_budget=4, word_budget=1, seed=0)
        hot = report.final.s.all_values()
        k = max(hot) + 1
        report.final = Condition(
            report.final.s.with_pair(0, k, k), report.final.words, report.final.mode
        )
        violations = verify_cofinitary(report)
        assert violations and any("g0" in v for v in violations)

    def test_ambient_generator_build(self):
        ground = GroundRep({7: zshift()})
        report = build(
            PosetMode.COFINITARY, [0], ground, point_budget=4, word_budget=2, seed=2
        )
        assert verify_cofinitary(report, ground) == []
        mixed = [w for w in report.frozen_fix if 7 in {l.gen for l in w.letters}]
        assert mixed, "mixed words should be frozen too"

    def test_ceiling_overflow_aborts_with_partial_report(self):
        with pytest.raises(BuildError) as err:
            build(PosetMode.COFINITARY, [0, 1], point_budget=30, word_budget=2,
                  seed=0, value_ceiling=3)
        assert err.value.partial is not None
        assert err.value.partial.goal_log  # progress up to the failing goal
        assert "g" in str(err.value)  # names the goal

    def test_hit_goal(self):
        sigma = zshift()
        report = build(
            PosetMode.COFINITARY,
            [0, 1],
            point_budget=4,
            word_budget=2,
            seed=3,
            extra_goals=[hit_goal(0, sigma, 10)],
        )
        hits = [w for g, _, w in report.goal_log if g.startswith("hit:")]
        assert len(hits) == 1 and hits[0] >= 10
        n = hits[0]
        assert report.final.s.get(0).fwd[n] == sigma.apply(n)


    def test_admitted_bad_value_still_aborts(self, monkeypatch):
        # The chooser's order check is the only one a point step runs.  With
        # a single generator the identity is laid on 0..3 before g0 is
        # frozen, so at domain:g0@4 the least admitted value becomes 4: a
        # new fixed point of the frozen word g0.
        least = ExtensionCertificate.least_admitted

        def least_or_4(self, floor=0):
            m = least(self, floor)
            return 4 if max(floor, 0) <= 4 < m else m

        monkeypatch.setattr(ExtensionCertificate, "least_admitted", least_or_4)
        with pytest.raises(BuildError) as err:
            build(PosetMode.COFINITARY, [0], point_budget=8, word_budget=1, seed=0)
        assert isinstance(err.value.__cause__, ContractViolation)
        assert "domain:g0@4" in str(err.value)


def _digest(report) -> str:
    return hashlib.sha256(encode_report(report.to_json())).hexdigest()


class TestGoldenReports:
    """Report digests recorded before the build steps were made incremental;
    any change to what a build produces shows here."""

    def test_cofinitary(self):
        report = build(PosetMode.COFINITARY, [0, 1, 2], point_budget=12, word_budget=3, seed=7)
        assert _digest(report) == (
            "42dbe9342416e33eaee05c765299993fa9f25a2b5a75bbd564b81037fe4e2461"
        )

    @pytest.mark.parametrize(
        "mode, digest",
        [
            (PosetMode.ADP, "6497583e6ae23515d708c686f5caa243be5b0d92327619a0b83550a6ed897653"),
            (PosetMode.EDF, "83e6aa9a14b85e611588e5122567ad53d22f73cceb3c23276439ac57cc920294"),
            (PosetMode.MAD, "6324d313cb0d6614e1ea894294eb33bf79f909f98cf66bb0e934959709976ef8"),
        ],
    )
    def test_variants(self, mode, digest):
        assert _digest(build_variant_family(mode, [0, 1, 2, 3], 40, seed=7)) == digest

    def test_ambient(self):
        report = build(
            PosetMode.COFINITARY, [0], GroundRep({7: zshift()}),
            point_budget=4, word_budget=2, seed=2,
        )
        assert _digest(report) == (
            "7642c1d8ce96ebb703d2d059e6b918b8264fd1a1f315f20a5749fd527bfcf4d5"
        )

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (3, "194058de08bec9467ff7b144a482907486cae342360c61af8dbf2af09887651b"),
            (1009, "8d8efd2de75127e7c51c1c17195875cdcac087f8a965661ee0b6cdd65c9ae47d"),
        ],
    )
    def test_wide(self, seed, digest):
        """The build of `build-group --generators 4 --max-word-len 4
        --points 20`: 2,432 hat words in four length groups, recorded
        before a length group was frozen in one step."""
        report = build(
            PosetMode.COFINITARY, range(4), point_budget=20, word_budget=4, seed=seed
        )
        assert _digest(report) == digest


class TestVariantFamilies:
    def test_adp(self):
        report = build_variant_family(PosetMode.ADP, [0, 1, 2], 30, seed=5)
        assert verify_variant(report) == []
        for g in (0, 1, 2):
            pm = report.final.s.get(g)
            assert pm.is_injective()
            assert pm.domain() >= set(range(30)) and pm.image() >= set(range(30))
        assert len(report.frozen_fix) == 3  # three unordered pairs

    def test_edf_accepts_collisions(self):
        report = build_variant_family(PosetMode.EDF, [0, 1, 2], 30, seed=6)
        assert verify_variant(report) == []
        for g in (0, 1, 2):
            assert report.final.s.get(g).domain() >= set(range(30))

    def test_mad(self):
        report = build_variant_family(PosetMode.MAD, [0, 1, 2], 30, seed=7)
        assert verify_variant(report) == []
        for g in (0, 1, 2):
            pm = report.final.s.get(g)
            assert pm.domain() >= set(range(30))
            assert set(pm.rev) <= {0, 1}

    def test_mad_corruption_detected(self):
        report = build_variant_family(PosetMode.MAD, [0, 1], 10, seed=8)
        fresh = max(report.final.s.all_values()) + 1
        report.final = Condition(
            report.final.s.with_pair(0, fresh, 1).with_pair(1, fresh, 1),
            report.final.words,
            report.final.mode,
        )
        assert verify_variant(report)
        assert verify_cofinitary(report)

    @pytest.mark.parametrize("mode", [PosetMode.ADP, PosetMode.EDF, PosetMode.MAD])
    def test_one_verifier_for_every_mode(self, mode):
        # a MAD letter's record holds its common 1-points with the letters
        # frozen before it only; checking it against all letters flagged
        # g2 of this build as broken
        report = build_variant_family(mode, [0, 1, 2], 30, seed=7)
        assert verify_cofinitary(report) == [] == verify_variant(report)

    def test_failed_point_step_keeps_its_cause(self, monkeypatch):
        import cofinitary.extension as extension

        def broken(*args):
            raise ContractViolation("broken point decision")

        monkeypatch.setattr(extension, "mad_set_point", broken)
        with pytest.raises(BuildError) as err:
            build_variant_family(PosetMode.MAD, [0, 1], 4, seed=0)
        assert isinstance(err.value.__cause__, ContractViolation)
        assert "domain:g0@0" in str(err.value) and err.value.partial is not None

    def test_cofinitary_not_a_variant(self):
        with pytest.raises(ValueError):
            build_variant_family(PosetMode.COFINITARY, [0], 5)


class TestReportFormats:
    def test_json_shape(self):
        report = build(PosetMode.COFINITARY, [0], point_budget=3, word_budget=1, seed=0)
        payload = json.loads(encode_report(report.to_json()))
        assert payload["schema"] == "1"
        assert "final" in payload and "frozen_fix" in payload and "goal_log" in payload
        for entry in payload["frozen_fix"].values():
            assert set(entry) == {"stage", "fix"}

    def test_csv_summary(self):
        report = build(PosetMode.COFINITARY, [0], point_budget=3, word_budget=1, seed=0)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "word,stage,fix_size"
        assert len(lines) == 1 + len(report.frozen_fix)
