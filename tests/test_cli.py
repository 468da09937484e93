import argparse
import gc
import json
import subprocess
import sys
import tracemalloc

import pytest

from cofinitary.cli import REPORT_DIR_ENV, main
from cofinitary.templates import SurrogateParams, build_surrogate_template, rank


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestBuildGroup:
    def test_happy_path(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code, out, err = run(
            [
                "build-group", "--mode", "cofinitary", "--generators", "2",
                "--points", "8", "--max-word-len", "2", "--seed", "7",
                "--out", str(out_file),
            ],
            capsys,
        )
        assert code == 0 and err == ""
        assert out.strip() == str(out_file)
        payload = json.loads(out_file.read_text())
        assert payload["schema"] == "2" and payload["violations"] == []

    def test_zero_points_usage_error(self, capsys):
        code, _, _ = run(
            ["build-group", "--generators", "2", "--points", "0", "--seed", "1"],
            capsys,
        )
        assert code == 2

    def test_missing_seed_usage_error(self, capsys):
        code, _, _ = run(["build-group", "--generators", "2", "--points", "4"], capsys)
        assert code == 2

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch, capsys):
        import cofinitary.builder as builder

        def broken(*args, **kwargs):
            raise ValueError("broken build\nsecond line")

        # cmd_build_group imports build from its module when it runs
        monkeypatch.setattr(builder, "build", broken)
        code, out, err = run(
            ["build-group", "--generators", "2", "--points", "4", "--seed", "1"], capsys
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "broken build" in err and "Traceback" not in err

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = [
            "build-group", "--mode", "adp", "--generators", "3",
            "--points", "12", "--seed", "5",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--out", str(a)], capsys)[0] == 0
        assert run(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_summary(self, tmp_path, capsys):
        out_file, csv_file = tmp_path / "r.json", tmp_path / "r.csv"
        code, _, _ = run(
            [
                "build-group", "--generators", "1", "--points", "3",
                "--max-word-len", "1", "--seed", "0",
                "--out", str(out_file), "--csv", str(csv_file),
            ],
            capsys,
        )
        assert code == 0
        assert csv_file.read_text().startswith("word,stage,fix_size")

    def test_csv_into_a_missing_directory(self, tmp_path, capsys):
        # the CSV's directories are made as the report's are
        out_file, csv_file = tmp_path / "r.json", tmp_path / "new" / "dir" / "r.csv"
        code, _, err = run(
            [
                "build-group", "--generators", "1", "--points", "3",
                "--max-word-len", "1", "--seed", "0",
                "--out", str(out_file), "--csv", str(csv_file),
            ],
            capsys,
        )
        assert code == 0, err
        assert csv_file.read_text().startswith("word,stage,fix_size")

    def test_csv_under_a_plain_file_writes_no_report(self, tmp_path, capsys):
        # the CSV's directory cannot be made, so the command is a usage
        # error that leaves no report behind and prints no path
        afile = tmp_path / "afile"
        afile.write_text("")
        out_file, csv_file = tmp_path / "r.json", afile / "r.csv"
        code, out, err = run(
            [
                "build-group", "--generators", "1", "--points", "3",
                "--max-word-len", "1", "--seed", "0",
                "--out", str(out_file), "--csv", str(csv_file),
            ],
            capsys,
        )
        assert code == 2 and out == "" and "afile" in err
        assert not out_file.exists() and afile.read_text() == ""

    @pytest.mark.parametrize("mode", ["adp", "edf", "mad"])
    def test_variant_modes(self, mode, tmp_path, capsys):
        code, _, _ = run(
            [
                "build-group", "--mode", mode, "--generators", "3",
                "--points", "10", "--seed", "2", "--out", str(tmp_path / "v.json"),
            ],
            capsys,
        )
        assert code == 0


    @pytest.mark.parametrize("mode", ["adp", "edf", "mad"])
    def test_word_length_is_fixed_for_variants(self, mode, tmp_path, capsys):
        code, out, err = run(
            [
                "build-group", "--mode", mode, "--generators", "3", "--points", "4",
                "--max-word-len", "4", "--seed", "2", "--out", str(tmp_path / "v.json"),
            ],
            capsys,
        )
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "--max-word-len" in err
        assert not (tmp_path / "v.json").exists()

    def test_word_length_from_config_is_fixed_for_variants(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "mad", "max_word_len": 2}))
        code, _, err = run(
            ["build-group", "--generators", "2", "--points", "3", "--seed", "1",
             "--config", str(cfg), "--out", str(tmp_path / "o.json")],
            capsys,
        )
        assert code == 2 and len(err.strip().splitlines()) == 1

    def test_required_flags_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 5, "seed": 3}))
        flags = ["build-group", "--generators", "2", "--max-word-len", "2"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run([*flags, "--config", str(cfg), "--out", str(a)], capsys)[0] == 0
        assert run([*flags, "--points", "5", "--seed", "3", "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("config", [None, {"seed": 3}], ids=["no-config", "config"])
    def test_required_flag_missing_from_both(self, config, tmp_path, capsys):
        argv = ["build-group", "--generators", "2", "--seed", "3"]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.splitlines()[-1] == (
            "cofinitary build-group: error: the following arguments are required: --points"
        )


class TestTemplateCmd:
    def test_surrogate_happy(self, tmp_path, capsys):
        out_file = tmp_path / "t.json"
        code, out, err = run(
            ["template", "--lambdas", "2,3", "--omega1", "2", "--seed", "1",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 0 and err == ""
        payload = json.loads(out_file.read_text())
        assert payload["axioms"] == [] and "rank" in payload

    def test_malformed_lambdas(self, capsys):
        code, _, err = run(["template", "--lambdas", "3,2", "--seed", "0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("lambdas", ["3,2", "2,x", "0,2"])
    def test_bad_lambdas_give_one_line(self, lambdas, capsys):
        code, _, err = run(["template", "--lambdas", lambdas, "--seed", "0"], capsys)
        assert code == 2 and len(err.strip().splitlines()) == 1

    def test_parameters_beyond_the_cap(self, capsys):
        code, _, err = run(["template", "--lambdas", "2,3", "--cap", "3"], capsys)
        assert code == 2 and "cap 3" in err

    def test_broken_template_file(self, tmp_path, capsys):
        blob = {
            "elements": ["p", "q"],
            "less": [["p", "q"]],
            "I": [[], ["p", "q"]],  # missing {p}: second clause fails
            "L0": ["p"],
            "L1": ["q"],
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(blob))
        code, _, err = run(
            ["template", "--template-file", str(path), "--out", str(tmp_path / "o.json")],
            capsys,
        )
        assert code == 1
        assert "clause 2" in err and "q" in err
        axioms = json.loads((tmp_path / "o.json").read_text())["axioms"]
        assert err.splitlines() == [f"clause {a['clause']}: {a['detail']}" for a in axioms]

    @pytest.mark.parametrize("blob, lines", [
        ({"I": [[], ["c", "a"], ["b"]], "L0": [], "L1": ["c", "a", "b"]}, [
            "clause 1: full set missing from the family",
            "clause 1: union of [b] and [a, c] missing",
            "clause 2: no family member inside the cut of b contains a",
            "clause 3: [a, c] cut at b leaves the family",
        ]),
        ({"I": [[], ["b"], ["c", "b"], ["c"]], "L0": ["a"], "L1": ["b", "c"]}, [
            "clause 1: full set missing from the family",
            "clause 2: no family member inside the cut of b contains a",
            "clause 5: [b] is not closed",
        ]),
    ])
    def test_template_file_witnesses_name_the_file_elements(self, blob, lines, tmp_path, capsys):
        # the elements are listed out of order (c first), so their ids are
        # neither their names nor their places in the order a < b < c
        blob = {"elements": ["c", "a", "b"], "less": [["a", "b"], ["b", "c"], ["a", "c"]], **blob}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(blob))
        code, _, err = run(
            ["template", "--template-file", str(path), "--out", str(tmp_path / "o.json")],
            capsys,
        )
        assert code == 1 and err.splitlines() == lines

    @pytest.mark.parametrize("member", [["p", "r"], ["p", 3]])
    def test_template_file_member_naming_a_non_element(self, member, tmp_path, capsys):
        blob = {
            "elements": ["p", "q"],
            "less": [["p", "q"]],
            "I": [[], ["p"], member, ["p", "q"]],
            "L0": ["p"],
            "L1": ["q"],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(blob))
        code, _, err = run(
            ["template", "--template-file", str(path), "--out", str(tmp_path / "o.json")],
            capsys,
        )
        assert code == 2 and len(err.strip().splitlines()) == 1
        assert err.startswith("bad template file")

    @pytest.mark.parametrize("lambdas", ["1,2", "2"])
    def test_exported_template_loads_back(self, lambdas, tmp_path, capsys):
        sizes = tuple(int(x) for x in lambdas.split(","))
        t = build_surrogate_template(SurrogateParams(sizes, 1)).order
        path = tmp_path / "export.json"
        path.write_text(json.dumps(t.to_json()))
        out_file = tmp_path / "o.json"
        code, _, err = run(
            ["template", "--template-file", str(path), "--out", str(out_file)], capsys
        )
        assert code == 0, err
        report = json.loads(out_file.read_text())
        assert report["axioms"] == [] and report["rank"] == rank(t)
        assert report["elements"] == len(t.elements)

    @pytest.mark.parametrize(
        "field, value",
        [("less", "by-size"), ("less", [["p"]]), ("less", 3), ("I", {"count": 3, "omitted": True}),
         ("L1", ["r"]), ("elements", [["p"], "q"]), ("elements", None),
         ("elements", ["p", "p", "q"])],
    )
    def test_malformed_template_field_is_named(self, field, value, tmp_path, capsys):
        blob = {
            "elements": ["p", "q"],
            "less": "by-rank",
            "I": [[], ["p"], ["p", "q"]],
            "L0": ["p"],
            "L1": ["q"],
        }
        blob[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(blob))
        code, _, err = run(
            ["template", "--template-file", str(path), "--out", str(tmp_path / "o.json")],
            capsys,
        )
        assert code == 2 and len(err.strip().splitlines()) == 1
        assert err.startswith(f"bad template file: field {field!r}")

    def test_template_file_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]")
        code, _, err = run(
            ["template", "--template-file", str(path), "--out", str(tmp_path / "o.json")],
            capsys,
        )
        assert code == 2 and err.strip() == "bad template file: expected a JSON object"

    def test_an_unordered_pair_is_named_by_the_file_elements(self, tmp_path, capsys):
        blob = {"elements": ["c", "a", "b"], "less": [["a", "b"], ["b", "c"]],
                "I": [[]], "L0": [], "L1": ["c", "a", "b"]}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(blob))
        code, _, err = run(
            ["template", "--template-file", str(path), "--out", str(tmp_path / "o.json")],
            capsys,
        )
        assert code == 2
        assert err.strip() == "bad template file: order must compare c and a exactly one way"

    def test_good_template_file(self, tmp_path, capsys):
        blob = {
            "elements": ["p", "q"],
            "less": [["p", "q"]],
            "I": [[], ["p"], ["p", "q"]],
            "L0": ["p"],
            "L1": ["q"],
        }
        path = tmp_path / "good.json"
        path.write_text(json.dumps(blob))
        code, _, err = run(
            ["template", "--template-file", str(path), "--out", str(tmp_path / "o.json")],
            capsys,
        )
        assert code == 0 and err == ""


class TestSuslinCmd:
    def test_hechler(self, tmp_path, capsys):
        code, _, err = run(
            ["suslin", "--poset", "hechler", "--n", "1", "--samples", "500",
             "--seed", "3", "--out", str(tmp_path / "s.json")],
            capsys,
        )
        assert code == 0 and err == ""

    def test_loc_one_informational(self, tmp_path, capsys):
        # failures with n = 1 are reported, not asserted
        code, _, err = run(
            ["suslin", "--poset", "loc", "--n", "1", "--samples", "500",
             "--seed", "3", "--out", str(tmp_path / "s.json")],
            capsys,
        )
        assert code == 0 and err == ""
        assert json.loads((tmp_path / "s.json").read_text())["failures"] > 0

    def test_bad_poset(self, capsys):
        code, _, _ = run(
            ["suslin", "--poset", "laver", "--n", "1", "--samples", "10", "--seed", "0"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "poset, n, code", [("hechler", 2, 1), ("hechler", 3, 1), ("loc", 1, 0), ("loc", 2, 1)]
    )
    def test_failures_count_where_the_law_holds(self, poset, n, code, monkeypatch, tmp_path,
                                                capsys):
        # the law holds for hechler from n = 1 and for loc from n = 2
        import cofinitary.suslin as suslin

        def one_failure(poset, n, samples, seed):
            return suslin.TrialReport(poset, n, samples, seed, 1, [0])

        monkeypatch.setattr(suslin, "n_suslin_trial", one_failure)
        got, _, err = run(
            ["suslin", "--poset", poset, "--n", str(n), "--samples", "10",
             "--seed", "3", "--out", str(tmp_path / "s.json")],
            capsys,
        )
        assert got == code
        assert err == ("1 failures out of 10\n" if code == 1 else "")


class TestFfpCmd:
    def test_all_modes(self, tmp_path, capsys):
        for mode in ("cofinitary", "adp", "edf", "mad"):
            code, _, err = run(
                ["ffp-suite", "--mode", mode, "--samples", "15", "--seed", "9",
                 "--out", str(tmp_path / f"f-{mode}.json")],
                capsys,
            )
            assert code == 0 and err == ""


class TestHitDensityCmd:
    def test_happy(self, tmp_path, capsys):
        code, _, err = run(
            ["hit-density", "--generators", "3", "--words", "4", "--maxN", "20",
             "--window", "64", "--samples", "20", "--seed", "5",
             "--out", str(tmp_path / "h.json")],
            capsys,
        )
        assert code == 0 and err == ""
        payload = json.loads((tmp_path / "h.json").read_text())
        assert payload["misses"] == []

    def test_one_phase_per_sample_answers_as_fresh_searches(self, tmp_path, capsys, monkeypatch):
        # each sample asks one point phase for all its starts: the phase
        # must keep no pair, and answer each start as a fresh hit_search
        from cofinitary import extension

        real = extension.PointPhase.hit
        phases = {}

        def checked(self, gen, sigma, start, window, keep=True):
            got = real(self, gen, sigma, start, window, keep)
            assert not self.added
            # hit_search's search, on the unpatched method
            fresh = real(extension.PointPhase(self.base), gen, sigma, start, window, False)
            assert got == fresh
            phases[id(self)] = self
            return got

        monkeypatch.setattr(extension.PointPhase, "hit", checked)
        code, _, err = run(
            ["hit-density", "--generators", "3", "--words", "4", "--maxN", "20",
             "--window", "64", "--samples", "6", "--seed", "5",
             "--out", str(tmp_path / "h.json")],
            capsys,
        )
        assert code == 0 and err == ""
        assert len(phases) == 6


class TestConfigFile:
    def test_config_defaults_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 100, "seed": 3, "poset": "hechler", "n": 1}))
        code, out, _ = run(
            ["suslin", "--poset", "hechler", "--n", "1", "--samples", "50",
             "--seed", "3", "--config", str(cfg), "--out", str(tmp_path / "o.json")],
            capsys,
        )
        assert code == 0
        payload = json.loads((tmp_path / "o.json").read_text())
        assert payload["samples"] == 50  # flag wins

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, _ = run(
            ["suslin", "--poset", "hechler", "--n", "1", "--samples", "10",
             "--seed", "3", "--config", str(cfg)],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "config",
        [{"max_word_len": "abc"}, {"mode": "bogus"}],
        ids=["untyped-value", "unknown-choice"],
    )
    def test_bad_config_value_is_a_usage_error(self, config, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(
            ["build-group", "--generators", "2", "--points", "3", "--seed", "1",
             "--config", str(cfg), "--out", str(tmp_path / "o.json")],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and next(iter(config)) in err

    @pytest.mark.parametrize(
        "config", [{"csv": {}}, {"out": 5}, {"csv": None}, {"out": ["o.json"]}],
        ids=["csv-object", "out-number", "csv-null", "out-list"],
    )
    def test_a_string_flag_takes_only_a_string(self, config, tmp_path, capsys, monkeypatch):
        # read through str(), these named files such as "{}" and "5"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generators": 2, "seed": 0, "points": 2, **config}))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(REPORT_DIR_ENV, str(tmp_path))
        code, out, err = run(["build-group", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == f"config key {next(iter(config))!r} must be a string"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_string_flags_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        report, table = tmp_path / "r.json", tmp_path / "t.csv"
        cfg.write_text(json.dumps({"generators": 2, "seed": 0, "points": 2,
                                   "out": str(report), "csv": str(table)}))
        code, out, _ = run(["build-group", "--config", str(cfg)], capsys)
        assert code == 0
        assert out.strip() == str(report)
        assert table.read_text().startswith("word,stage,fix_size")

    def test_non_utf8_config_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{")
        report = tmp_path / "o.json"
        code, out, err = run(
            ["suslin", "--poset", "hechler", "--n", "1", "--samples", "5", "--seed", "1",
             "--config", str(cfg), "--out", str(report)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "bad config file" in err
        assert not report.exists()

    @pytest.mark.parametrize(
        "flag", [["--maxN", "2"], ["--maxN=2"], ["--max", "2"]], ids=["dest", "equals", "prefix"]
    )
    def test_typed_flag_wins_over_config(self, flag, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_n": 3}))
        code, _, _ = run(
            ["hit-density", "--generators", "2", *flag, "--window", "8",
             "--samples", "2", "--seed", "1", "--config", str(cfg),
             "--out", str(tmp_path / "h.json")],
            capsys,
        )
        assert code == 0
        assert json.loads((tmp_path / "h.json").read_text())["max_n"] == 2


# flag -> (its config key, a command that takes it)
NEGATIVE_FLAGS = {
    "--ceiling": (
        "ceiling", ["build-group", "--generators", "2", "--points", "3", "--seed", "1"]
    ),
    "--maxN": (
        "max_n",
        ["hit-density", "--generators", "2", "--window", "8", "--samples", "2", "--seed", "1"],
    ),
}


@pytest.mark.parametrize("flag", sorted(NEGATIVE_FLAGS))
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_count_is_a_usage_error(flag, source, tmp_path, capsys):
    key, argv = NEGATIVE_FLAGS[flag]
    argv = [*argv, "--out", str(tmp_path / "o.json")]
    if source == "flag":
        argv += [flag, "-1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: -1}))
        argv += ["--config", str(cfg)]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert "-1 is negative" in err and "Traceback" not in err
    assert not (tmp_path / "o.json").exists()


def test_report_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COFINITARY_REPORT_DIR", str(tmp_path / "reports"))
    code, out, _ = run(
        ["suslin", "--poset", "hechler", "--n", "1", "--samples", "20", "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert out.strip().startswith(str(tmp_path / "reports"))


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cofinitary.cli", "suslin", "--poset", "hechler",
         "--n", "1", "--samples", "20", "--seed", "1",
         "--out", str(tmp_path / "o.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == str(tmp_path / "o.json")


def test_a_word_budget_past_the_recursion_limit_builds(tmp_path):
    # length 990 is past Python's default recursion limit; the word walkers
    # keep their own stacks, so the budget is limited by time alone
    proc = subprocess.run(
        [sys.executable, "-m", "cofinitary.cli", "build-group", "--generators", "1",
         "--max-word-len", "990", "--points", "1", "--seed", "0",
         "--out", str(tmp_path / "o.json")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.strip() == str(tmp_path / "o.json")
    assert len(json.loads((tmp_path / "o.json").read_text())["frozen_fix"]) == 990


# -- the verdict rule -------------------------------------------------------------
# A run exits 1 exactly when its report records a problem, and prints each
# problem as one stderr line, in the report's order; a passing run exits 0
# and prints nothing to stderr.  Each case is a passing command, a patch that
# makes it fail, and the problems read off its failing report (None where
# the run writes none, as an aborted build must not).


def _verify_finds_two(monkeypatch, intercept):
    import cofinitary.builder as builder

    monkeypatch.setattr(builder, "verify_cofinitary", lambda report: ["g0 fixes 3", "g1 fixes 5"])


ABORT = "goal g0 found no hit"


def _build_aborts(monkeypatch, intercept):
    import cofinitary.builder as builder

    def build(*args, **kwargs):
        raise builder.BuildError(ABORT)

    monkeypatch.setattr(builder, "build", build)


def _axioms_and_nesting_fail(monkeypatch, intercept):
    import cofinitary.templates as templates

    bad = [templates.AxiomViolation(1, "not closed"), templates.AxiomViolation(3, "cut leaks")]
    monkeypatch.setattr(templates, "check_axioms", lambda t: bad)
    monkeypatch.setattr(templates, "interval_nesting_failures", lambda surrogate: 2)


def _suite_order_refuses(monkeypatch, intercept):
    from cofinitary import poset, suslin

    intercept(suslin, poset, leq=lambda p, q: False)


def _meets_refused(monkeypatch, intercept):
    from cofinitary import suslin
    from cofinitary.poset import Incompatible

    monkeypatch.setattr(suslin, "dom_meet", lambda p, q: Incompatible("refused"))


def _hits_missed(monkeypatch, intercept):
    import cofinitary.extension as extension

    monkeypatch.setattr(extension.PointPhase, "hit", lambda *args, **kwargs: None)


BUILD = ["build-group", "--generators", "2", "--points", "8", "--max-word-len", "2", "--seed", "7"]

VERDICTS = {
    "build-group": (BUILD, _verify_finds_two, lambda r: r["violations"]),
    "build-group-aborted": (
        BUILD, _build_aborts, lambda r: [f"build aborted: {ABORT}"] if r is None else [],
    ),
    "template": (
        ["template", "--lambdas", "2,3", "--omega1", "2", "--seed", "1"],
        _axioms_and_nesting_fail,
        lambda r: [f"clause {a['clause']}: {a['detail']}" for a in r["axioms"]]
        + [f"{r['interval_nesting_failures']} interval nesting failures"],
    ),
    "ffp-suite": (
        ["ffp-suite", "--mode", "cofinitary", "--samples", "15", "--seed", "9"],
        _suite_order_refuses,
        lambda r: [f"{c['name']}: {c['witness']}" for c in r["clauses"] if not c["passed"]],
    ),
    "suslin": (
        ["suslin", "--poset", "hechler", "--n", "1", "--samples", "50", "--seed", "3"],
        _meets_refused,
        lambda r: [f"{r['failures']} failures out of {r['samples']}"],
    ),
    "hit-density": (
        ["hit-density", "--generators", "3", "--maxN", "5", "--window", "64", "--samples", "3",
         "--seed", "5"],
        _hits_missed,
        lambda r: [f"{len(r['misses'])} searches found no hit"],
    ),
}


@pytest.mark.parametrize("command", list(VERDICTS))
def test_each_recorded_problem_is_one_stderr_line(command, monkeypatch, intercept, tmp_path,
                                                  capsys):
    argv, fail, problems = VERDICTS[command]
    passed, failed = tmp_path / "pass.json", tmp_path / "fail.json"
    code, _, err = run(argv + ["--out", str(passed)], capsys)
    assert (code, err) == (0, "")
    fail(monkeypatch, intercept)
    code, _, err = run(argv + ["--out", str(failed)], capsys)
    want = problems(json.loads(failed.read_text()) if failed.exists() else None)
    assert code == 1 and want
    assert err.splitlines() == want


# -- one parser per process ------------------------------------------------------


def test_repeated_calls_grow_no_argparse_allocation(capsys):
    # a usage error (no --seed) parses and loads no layer; a parser built
    # per call grew argparse's allocations by about 1 KiB a call
    argv = ["build-group", "--generators", "2", "--points", "4"]
    for _ in range(3):
        assert run(argv, capsys)[0] == 2
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(30):
            run(argv, capsys)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    only = [tracemalloc.Filter(True, argparse.__file__)]
    diff = after.filter_traces(only).compare_to(before.filter_traces(only), "filename")
    assert sum(d.size_diff for d in diff) <= 0, diff


def test_config_calls_leave_the_required_flags_required(tmp_path, capsys):
    # --config relaxes the required flags for one parse of the shared
    # parser; a later call that omits one is still a usage error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 5, "seed": 3}))
    flags = ["build-group", "--generators", "2", "--max-word-len", "2", "--config", str(cfg)]
    assert run([*flags, "--out", str(tmp_path / "o.json")], capsys)[0] == 0
    assert run([*flags, "--ceiling", "-1"], capsys)[0] == 2  # the relaxed parse fails
    for _ in range(2):
        code, _, err = run(["build-group", "--generators", "2", "--seed", "3"], capsys)
        assert code == 2
        assert err.splitlines()[-1] == (
            "cofinitary build-group: error: the following arguments are required: --points"
        )
