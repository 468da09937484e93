import hashlib
import json

import pytest

from cofinitary.builder import (
    BuildError,
    build,
    hit_goal,
    verify_cofinitary,
    verify_variant,
)
from cofinitary.writer import encode_report
from cofinitary.evaluation import zshift
from cofinitary.extension import ContractViolation, ExtensionCertificate
from cofinitary.poset import DISCIPLINES, Condition, PosetMode, leq
from cofinitary.words import format_word, parse_word, single
from report_reference import plain


class TestBuild:
    def test_tiny_build(self):
        report = build(PosetMode.COFINITARY, [0], point_budget=3, word_budget=1, seed=0)
        pm = report.final.s.get(0)
        assert pm.domain() >= {0, 1, 2} and pm.image() >= {0, 1, 2}
        assert pm.is_injective()
        # the class {g0, g0^-1} is frozen once, by its least word
        assert set(report.frozen_fix) == {single(0, -1)}
        assert plain(report.to_json())["frozen_fix"]["g0^-1"]["hat_words"] == 2
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
        hot = report.final.s.summary()[0]
        k = max(hot) + 1
        report.final = Condition(
            report.final.s.with_pair(0, k, k), report.final.words, report.final.mode
        )
        violations = verify_cofinitary(report)
        assert violations and any("g0" in v for v in violations)

    def test_budgets_are_keyword_only(self):
        # a third positional argument binds to no budget
        with pytest.raises(TypeError):
            build(PosetMode.COFINITARY, [0], 4)

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
        # The point phase's order kernel is the only check that can catch a
        # bad admitted value: the builder chooses through the certificate's
        # least_admitted (extension.least_within), patched here.  With a
        # single generator the identity is laid on 0..3 before g0 is
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


def test_the_build_recheck_call_shape():
    """perfbench/workloads.py rechecks a build's frozen fix sets with exactly
    this import and call; fix_points keeps its third argument for it and
    takes no other value there."""
    from cofinitary.evaluation import EMPTY_GROUND, Assignment, fix_points

    report = build(PosetMode.COFINITARY, [0, 1], point_budget=6, word_budget=2, seed=1)
    payload = json.loads(encode_report(report.to_json()))  # as the workload reads the file
    s = Assignment.from_json(payload["final"]["s"])
    assert payload["frozen_fix"]
    for text, rec in payload["frozen_fix"].items():
        w = parse_word(text)
        res = fix_points(w, s, EMPTY_GROUND)
        assert res.exact and res.points == fix_points(w, s).points
        assert sorted(res.points) == rec["fix"]
        with pytest.raises(ValueError):
            fix_points(w, s, object())


def _digest(report) -> str:
    return hashlib.sha256(encode_report(report.to_json())).hexdigest()


class TestGoldenReports:
    """Report digests recorded before the build steps were made incremental;
    any change to what a build produces shows here.  The cofinitary digests
    were re-recorded when a build came to freeze one hat word per class;
    their final assignments did not change."""

    def test_cofinitary(self):
        report = build(PosetMode.COFINITARY, [0, 1, 2], point_budget=12, word_budget=3, seed=7)
        assert _digest(report) == (
            "c05cb40d1733ed27210161529d476ddee79c492e472ffe6d9bbbf79363041452"
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
        report = build(
            mode, [0, 1, 2, 3], point_budget=40, word_budget=DISCIPLINES[mode].word_budget, seed=7
        )
        assert _digest(report) == digest

    @pytest.mark.parametrize(
        "seed, mode, digest",
        [
            (3, "cofinitary", "ba8c0b7648fac894602bccb25959ff1f9378ad088dfdc2f4a4bd7ce1c130873a"),
            (3, "adp", "0ffafcc1a91ff9b9a3a52b4ab5a3a34418da34e557c952ae913261d3d2633357"),
            (3, "edf", "5572b99a9fe17f34f87a26afb6c08cd48e567581faecdf6d87be2df3b5d8a0ed"),
            (3, "mad", "9a7437a78a4c52b582b381f2f9a3cfc07e08ae5345951dc68872e07ee3b2d146"),
            (1009, "cofinitary", "8c4c88b5547cc59753e767dad74eb3f4f142558f6a86bd2b12212ce1eb0cd30a"),
            (1009, "adp", "9fd47f8acde2bc8caa196302ffe94cd5cb49235af201fc963f5a93e31f18e3db"),
            (1009, "edf", "320a68e9796472d61590d2c2c303eaebf752200e423a7af2c305fb92206cb1b8"),
            (1009, "mad", "9b513b9921b037fb9f481058bc65341981e84595da68a5e968affacc0b5220d0"),
        ],
    )
    def test_long(self, seed, mode, digest):
        """The four builds of `build-group`: cofinitary over 2 generators
        with 300 points and words up to length 2, and adp, edf and mad over
        4 generators with 200 points.  Recorded before each assignment
        carried its value summary; at this size the values fill a long run
        from 0 and most points are held by side words."""
        if mode == "cofinitary":
            report = build(PosetMode.COFINITARY, [0, 1], point_budget=300, word_budget=2, seed=seed)
        else:
            report = build(
                PosetMode(mode), [0, 1, 2, 3], point_budget=200,
                word_budget=DISCIPLINES[PosetMode(mode)].word_budget, seed=seed,
            )
        assert _digest(report) == digest

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (3, "d53bb2fd79fc315123dd6160082537e03b6296514c5c40f0a3217cd838541267"),
            (1009, "b33d7786c31a45e62ba6e875db23ddc76909945dea147c02fc6241460e3e68d8"),
        ],
    )
    def test_wide(self, seed, digest):
        """The build of `build-group --generators 4 --max-word-len 4
        --points 20`: 2,432 hat words in 390 classes and four length
        groups, one word frozen per class."""
        report = build(
            PosetMode.COFINITARY, range(4), point_budget=20, word_budget=4, seed=seed
        )
        assert _digest(report) == digest


class TestVariantFamilies:
    def test_adp(self):
        report = build(
            PosetMode.ADP, [0, 1, 2], point_budget=30,
            word_budget=DISCIPLINES[PosetMode.ADP].word_budget, seed=5,
        )
        assert verify_variant(report) == []
        for g in (0, 1, 2):
            pm = report.final.s.get(g)
            assert pm.is_injective()
            assert pm.domain() >= set(range(30)) and pm.image() >= set(range(30))
        assert len(report.frozen_fix) == 3  # three unordered pairs

    def test_edf_accepts_collisions(self):
        report = build(
            PosetMode.EDF, [0, 1, 2], point_budget=30,
            word_budget=DISCIPLINES[PosetMode.EDF].word_budget, seed=6,
        )
        assert verify_variant(report) == []
        for g in (0, 1, 2):
            assert report.final.s.get(g).domain() >= set(range(30))

    def test_mad(self):
        report = build(
            PosetMode.MAD, [0, 1, 2], point_budget=30,
            word_budget=DISCIPLINES[PosetMode.MAD].word_budget, seed=7,
        )
        assert verify_variant(report) == []
        for g in (0, 1, 2):
            pm = report.final.s.get(g)
            assert pm.domain() >= set(range(30))
            assert set(pm.rev) <= {0, 1}

    def test_mad_corruption_detected(self):
        report = build(
            PosetMode.MAD, [0, 1], point_budget=10,
            word_budget=DISCIPLINES[PosetMode.MAD].word_budget, seed=8,
        )
        fresh = max(report.final.s.summary()[0]) + 1
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
        report = build(
            mode, [0, 1, 2], point_budget=30, word_budget=DISCIPLINES[mode].word_budget, seed=7
        )
        assert verify_cofinitary(report) == [] == verify_variant(report)

    def test_failed_point_step_keeps_its_cause(self, monkeypatch):
        import cofinitary.extension as extension

        def broken(*args):
            raise ContractViolation("broken point decision")

        # the point phase decides a MAD point by extension.mad_value
        monkeypatch.setattr(extension, "mad_value", broken)
        with pytest.raises(BuildError) as err:
            build(
                PosetMode.MAD, [0, 1], point_budget=4,
                word_budget=DISCIPLINES[PosetMode.MAD].word_budget, seed=0,
            )
        assert isinstance(err.value.__cause__, ContractViolation)
        assert "domain:g0@0" in str(err.value) and err.value.partial is not None


class TestReportFormats:
    def test_json_shape(self):
        report = build(PosetMode.COFINITARY, [0], point_budget=3, word_budget=1, seed=0)
        payload = json.loads(encode_report(report.to_json()))
        assert payload["schema"] == "1"
        assert "final" in payload and "frozen_fix" in payload and "goal_log" in payload
        for entry in payload["frozen_fix"].values():
            assert set(entry) == {"stage", "fix", "hat_words"}

    @pytest.mark.parametrize("mode", [PosetMode.ADP, PosetMode.EDF, PosetMode.MAD])
    def test_variant_entries_count_no_hat_words(self, mode):
        report = build(
            mode, [0, 1, 2], point_budget=10, word_budget=DISCIPLINES[mode].word_budget, seed=0
        )
        payload = plain(report.to_json())
        for entry in payload["frozen_fix"].values():
            assert set(entry) == {"stage", "fix"}

    def test_final_side_set_is_written_as_it_is(self):
        # F is read off the final condition, also when it is not the set of
        # frozen words (here one frozen word is swapped for another word)
        report = build(PosetMode.COFINITARY, [0, 1], point_budget=4, word_budget=2, seed=1)
        dropped = report.final.sorted_words()[0]
        words = report.final.words - {dropped} | {parse_word("g0^3")}
        report.final = Condition(report.final.s, words, report.final.mode)
        assert len(words) == len(report.frozen_fix)
        payload = plain(report.to_json())
        assert payload["final"]["F"] == [format_word(w) for w in report.final.sorted_words()]
        assert format_word(dropped) in payload["frozen_fix"]

    def test_csv_summary(self):
        report = build(PosetMode.COFINITARY, [0], point_budget=3, word_budget=1, seed=0)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "word,stage,fix_size"
        assert len(lines) == 1 + len(report.frozen_fix)
