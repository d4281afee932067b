import json

import pytest

from fuzzaut import FuzzyRecognizer, Lattice, ParseError, ValidationError, des, greatest_invariant
from fuzzaut.cli import (
    dumps,
    load,
    machine_from_document,
    machine_to_document,
    main,
    report_to_document,
    save,
)

from conftest import (
    BOOL,
    GODEL,
    alternating_showcase_recognizer,
    automaton_ri_beats_rie,
    blocking_showcase_recognizer,
    funnel_recognizer,
    one_state_sink,
    product_nonterminating,
    tau_chain_recognizer,
)

SHOWCASE_DOC = {
    "version": 1,
    "lattice": {"kind": "boolean"},
    "states": ["1", "2", "3"],
    "alphabet": ["x", "y"],
    "delta": {
        "x": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
        "y": [["1", "0", "0"], ["1", "1", "0"], ["1", "0", "0"]],
    },
    "sigma": None,
    "tau": None,
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestDocuments:
    def test_load_matches_builder(self, tmp_path):
        path = write(tmp_path, "a.json", SHOWCASE_DOC)
        assert load(path) == automaton_ri_beats_rie()

    def test_round_trip_everything(self, tmp_path):
        machines = [
            automaton_ri_beats_rie(),
            alternating_showcase_recognizer(),
            tau_chain_recognizer(),
            greatest_invariant(alternating_showcase_recognizer(), "ri").quotient,
            one_state_sink(__import__("fuzzaut").Lattice.chain(4)),
        ]
        for i, m in enumerate(machines):
            path = str(tmp_path / f"m{i}.json")
            save(m, path)
            assert load(path) == m

    def test_serialization_is_deterministic(self):
        a = machine_to_document(blocking_showcase_recognizer())
        b = machine_to_document(blocking_showcase_recognizer())
        assert dumps(a) == dumps(b)

    def test_sigma_without_tau_rejected(self):
        doc = dict(SHOWCASE_DOC, sigma=["1", "0", "0"])
        with pytest.raises(ValidationError):
            machine_from_document(doc)

    def test_boolean_rejects_fractional_value(self, tmp_path):
        doc = json.loads(json.dumps(SHOWCASE_DOC))
        doc["delta"]["x"][0][1] = "0.3"
        path = write(tmp_path, "bad.json", doc)
        with pytest.raises(Exception):
            load(path)
        assert main(["info", path]) == 2

    @pytest.mark.parametrize("n", [4.7, True, "2"])
    def test_chain_level_count_must_be_an_integer(self, tmp_path, capsys, n):
        doc = dict(SHOWCASE_DOC, lattice={"kind": "chain", "n": n})
        with pytest.raises(ValidationError):
            machine_from_document(doc)
        assert main(["info", write(tmp_path, "a.json", doc)]) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_chain_integer_level_count_accepted(self, tmp_path, capsys):
        doc = dict(SHOWCASE_DOC, lattice={"kind": "chain", "n": 4})
        assert machine_from_document(doc).lattice.n == 4
        assert main(["info", write(tmp_path, "a.json", doc)]) == 0
        assert "lattice: chain(4)" in capsys.readouterr().out

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_schema_version_must_be_the_integer_1(self, version):
        # True == 1 == 1.0 in Python; neither is the schema's version
        with pytest.raises(ParseError, match="unsupported schema version"):
            machine_from_document(dict(SHOWCASE_DOC, version=version))

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_cli_rejects_non_integer_schema_version(self, tmp_path, capsys, version):
        path = write(tmp_path, "a.json", dict(SHOWCASE_DOC, version=version))
        assert main(["info", path]) == 2
        out_path = str(tmp_path / "q.json")
        assert main(["reduce", "--method", "ri", "--input", path, "--output", out_path]) == 2
        assert "unsupported schema version" in capsys.readouterr().err

    def test_each_distinct_value_text_parsed_once(self, monkeypatch):
        texts = []
        original = Lattice.parse
        counted = lambda lat, text: texts.append(text) or original(lat, text)  # noqa: E731
        monkeypatch.setattr(Lattice, "parse", counted)
        doc = machine_to_document(blocking_showcase_recognizer())
        machine = machine_from_document(doc)
        assert machine == blocking_showcase_recognizer()
        assert sorted(texts) == ["0", "1"]

    def test_repeated_bad_value_rejected_at_every_entry(self):
        # the first bad text raises; a repeated good text is no excuse for
        # skipping the string check of a later entry
        doc = json.loads(json.dumps(SHOWCASE_DOC))
        doc["delta"]["y"][2][2] = 0
        with pytest.raises(ParseError, match=r"delta\[y\]: entry \(2,2\) must be a string"):
            machine_from_document(doc)

    def test_huge_decimal_exponent_rejected(self, tmp_path, capsys):
        doc = dict(SHOWCASE_DOC, lattice={"kind": "godel"})
        tiny = [["1e-3000000", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
        doc["delta"] = dict(doc["delta"], x=tiny)
        assert main(["info", write(tmp_path, "a.json", doc)]) == 2
        assert "exponent beyond 4300" in capsys.readouterr().err

    def test_missing_field_rejected(self, tmp_path):
        doc = {k: v for k, v in SHOWCASE_DOC.items() if k != "delta"}
        path = write(tmp_path, "bad.json", doc)
        assert main(["info", path]) == 2

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["info", str(path)]) == 2

    def test_non_utf8_document_rejected(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(SHOWCASE_DOC).replace('"1"', '"é"').encode("latin-1"))
        assert main(["info", str(path)]) == 2
        assert "unreadable document" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["version", "n"])
    def test_integer_past_the_digit_limit_rejected(self, tmp_path, capsys, field):
        # CPython refuses to convert an integer string of more than 4300 digits
        doc = dict(SHOWCASE_DOC, lattice={"kind": "chain", "n": 4})
        small = '"version": 1' if field == "version" else '"n": 4'
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc).replace(small, f'"{field}": {"7" * 5000}'))
        assert main(["info", str(path)]) == 2
        assert "unreadable document" in capsys.readouterr().err

    def test_deeply_nested_document_rejected(self, tmp_path, capsys):
        doc = dict(SHOWCASE_DOC, sigma="@")
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc).replace('"@"', "[" * 100_000 + "]" * 100_000))
        assert main(["info", str(path)]) == 2
        assert "unreadable document" in capsys.readouterr().err

    def test_report_document_shape(self):
        report = greatest_invariant(tau_chain_recognizer(), "wri")
        doc = report_to_document(report)
        assert doc["method"] == "wri"
        assert doc["converged"] is True
        assert doc["state_trace"] == [4, 2]
        assert doc["quotient"]["states"] == ["Q1", "Q3"]


class TestCommands:
    def test_info(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", SHOWCASE_DOC)
        assert main(["info", path]) == 0
        out = capsys.readouterr().out
        assert "automaton" in out and "boolean" in out

    def test_reduce_showcase(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", SHOWCASE_DOC)
        out_path = str(tmp_path / "q.json")
        assert main(["reduce", "--method", "ri", "--input", path, "--output", out_path]) == 0
        out = capsys.readouterr().out
        assert "state trace: 3 -> 2" in out
        quotient = load(out_path)
        assert quotient.n == 2

    def test_reduce_non_convergence_exits_3(self, tmp_path, capsys):
        save(product_nonterminating(), str(tmp_path / "p.json"))
        code = main(
            ["reduce", "--method", "ri", "--input", str(tmp_path / "p.json"), "--max-iter", "8"]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "converged: false" in out
        assert "last iterate:" in out and "iterate infimum:" in out
        assert "1/128" in out  # entry (2,1) after 8 iterates

    def test_reduce_max_iter_below_one_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", SHOWCASE_DOC)
        assert main(["reduce", "--method", "ri", "--input", path, "--max-iter", "0"]) == 2
        assert "max_iter must be at least 1" in capsys.readouterr().err

    def test_reduce_max_depth(self, tmp_path, capsys):
        path = str(tmp_path / "a.json")
        save(tau_chain_recognizer(), path)
        reduce_wri = ["reduce", "--method", "wri", "--input", path]
        # depth 0 truncates the family, so the result is not converged
        assert main(reduce_wri + ["--max-depth", "0"]) == 3
        assert "converged: false" in capsys.readouterr().out
        assert main(reduce_wri) == 0
        assert "converged: true" in capsys.readouterr().out
        assert main(reduce_wri + ["--max-depth", "-1"]) == 2
        assert "max_depth must be nonnegative" in capsys.readouterr().err

    def test_reduce_cli_method_alias(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", SHOWCASE_DOC)
        assert main(["reduce", "--method", "cli", "--input", path]) == 0
        assert "method: cli_crisp" in capsys.readouterr().out

    def test_equiv_with_quotient(self, tmp_path, capsys):
        rec = alternating_showcase_recognizer()
        save(rec, str(tmp_path / "a.json"))
        save(greatest_invariant(rec, "ri").quotient, str(tmp_path / "b.json"))
        code = main(
            ["equiv", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--max-len", "6"]
        )
        assert code == 0
        assert "equal up to 6" in capsys.readouterr().out

    def test_equiv_long_bound(self, tmp_path, capsys):
        rec = funnel_recognizer()
        save(rec, str(tmp_path / "a.json"))
        save(greatest_invariant(rec, "ri").quotient, str(tmp_path / "b.json"))
        code = main(
            ["equiv", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--max-len", "64"]
        )
        assert code == 0
        assert capsys.readouterr().out == "equal up to 64\n"

    def test_equiv_reports_divergence(self, tmp_path, capsys):
        a = blocking_showcase_recognizer()
        b = FuzzyRecognizer(a.automaton, a.sigma, a.sigma)
        save(a, str(tmp_path / "a.json"))
        save(b, str(tmp_path / "b.json"))
        tweaked = json.loads((tmp_path / "b.json").read_text())
        tweaked["tau"] = ["1", "0", "0", "0"]
        (tmp_path / "b.json").write_text(json.dumps(tweaked))
        assert main(["equiv", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
        assert "diverge at" in capsys.readouterr().out

    def test_equiv_lattice_mismatch_exits_2(self, tmp_path, capsys):
        save(one_state_sink(BOOL), str(tmp_path / "a.json"))
        save(one_state_sink(GODEL), str(tmp_path / "b.json"))
        assert main(["equiv", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
        assert "boolean vs godel" in capsys.readouterr().err

    def test_equiv_negative_max_len_exits_2(self, tmp_path, capsys):
        save(alternating_showcase_recognizer(), str(tmp_path / "a.json"))
        path = str(tmp_path / "a.json")
        assert main(["equiv", path, path, "--max-len", "-1"]) == 2
        captured = capsys.readouterr()
        assert "word length bound must be nonnegative" in captured.err
        assert "equal up to" not in captured.out

    def test_alternate(self, tmp_path, capsys):
        save(alternating_showcase_recognizer(), str(tmp_path / "a.json"))
        code = main(
            ["alternate", "--input", str(tmp_path / "a.json"), "--schedule", "wrl"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "state trace: 3 -> 3 -> 2" in out
        assert "stopped: isomorphic" in out

    def test_alternate_above_isomorphism_cap(self, tmp_path, capsys):
        save(funnel_recognizer(14), str(tmp_path / "a.json"))
        out_path = str(tmp_path / "reduct.json")
        code = main(
            ["alternate", "--input", str(tmp_path / "a.json"), "--schedule", "lr",
             "--output", out_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "state trace: 14 -> 14 -> 5 -> 5" in out
        assert "stopped: isomorphic" in out
        assert load(out_path).n == 5

    def test_alternate_max_rounds_below_one_exits_2(self, tmp_path, capsys):
        save(alternating_showcase_recognizer(), str(tmp_path / "a.json"))
        code = main(
            ["alternate", "--input", str(tmp_path / "a.json"), "--schedule", "wrl",
             "--max-rounds", "0"]
        )
        assert code == 2
        assert "max_rounds must be at least 1" in capsys.readouterr().err

    def test_determinize(self, tmp_path, capsys):
        save(tau_chain_recognizer(), str(tmp_path / "a.json"))
        code = main(
            ["determinize", "--input", str(tmp_path / "a.json"), "--direction", "rev"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "members: 2" in out and "complete: true" in out

    def test_determinize_truncation_exits_3(self, tmp_path):
        from conftest import PROD, vec

        rec = FuzzyRecognizer(
            product_nonterminating(), vec(PROD, [1, 1]), vec(PROD, [1, 1])
        )
        save(rec, str(tmp_path / "p.json"))
        code = main(
            [
                "determinize",
                "--input",
                str(tmp_path / "p.json"),
                "--direction",
                "fwd",
                "--max-states",
                "8",
            ]
        )
        assert code == 3

    def test_determinize_negative_depth_exits_2(self, tmp_path, capsys):
        save(tau_chain_recognizer(), str(tmp_path / "a.json"))
        code = main(
            ["determinize", "--input", str(tmp_path / "a.json"), "--direction", "fwd",
             "--max-depth", "-1"]
        )
        assert code == 2
        assert "max_depth must be nonnegative" in capsys.readouterr().err

    def test_reduce_caps_checked_for_plain_method(self, tmp_path, capsys):
        save(tau_chain_recognizer(), str(tmp_path / "a.json"))
        code = main(
            ["reduce", "--method", "ri", "--input", str(tmp_path / "a.json"),
             "--max-states", "0", "--max-depth", "-1"]
        )
        assert code == 2
        assert "max_states must be at least 1" in capsys.readouterr().err

    def test_des_blocking_and_conflict(self, tmp_path, capsys):
        rec = blocking_showcase_recognizer()
        save(rec, str(tmp_path / "a.json"))
        save(greatest_invariant(rec, "wri").quotient, str(tmp_path / "q.json"))
        save(one_state_sink(__import__("conftest").BOOL), str(tmp_path / "b.json"))

        assert main(["des", "blocking", str(tmp_path / "a.json"), "--horizon", "4"]) == 0
        assert "nonblocking" in capsys.readouterr().out
        assert main(["des", "blocking", str(tmp_path / "q.json"), "--horizon", "4"]) == 0
        out = capsys.readouterr().out
        assert "verdict: blocking" in out and "witness: 'x.x'" in out
        assert (
            main(
                [
                    "des",
                    "conflict",
                    str(tmp_path / "q.json"),
                    str(tmp_path / "b.json"),
                    "--horizon",
                    "4",
                ]
            )
            == 0
        )
        assert "blocking" in capsys.readouterr().out

    def test_des_parallel_writes_composition(self, tmp_path, capsys):
        save(blocking_showcase_recognizer(), str(tmp_path / "a.json"))
        save(one_state_sink(__import__("conftest").BOOL), str(tmp_path / "b.json"))
        out_path = str(tmp_path / "c.json")
        code = main(
            ["des", "parallel", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--output", out_path]
        )
        assert code == 0
        composed = load(out_path)
        assert composed.n == 4
        assert composed.states[0] == "(1,b)"

    def test_des_conflict_composes_once(self, tmp_path, capsys, monkeypatch):
        # a blocking pair: the witness is named with the composition's letters
        quotient = greatest_invariant(blocking_showcase_recognizer(), "wri").quotient
        save(quotient, str(tmp_path / "a.json"))
        save(one_state_sink(BOOL), str(tmp_path / "b.json"))
        calls = []
        compose = des._compose

        def counting(*args, **kwargs):
            calls.append(args)
            return compose(*args, **kwargs)

        monkeypatch.setattr(des, "_compose", counting)
        assert main(["des", "conflict", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
        assert capsys.readouterr().out == "verdict: blocking\nwitness: 'x.x'\n"
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["reduce", "alternate", "determinize", "des parallel"])
    @pytest.mark.parametrize("target", ["nodir/out.json", "."])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command, target):
        save(tau_chain_recognizer(), str(tmp_path / "a.json"))
        save(one_state_sink(BOOL), str(tmp_path / "b.json"))
        inputs = {
            "reduce": ["reduce", "--method", "ri", "--input", str(tmp_path / "a.json")],
            "alternate": ["alternate", "--schedule", "rl", "--input", str(tmp_path / "a.json")],
            "determinize": ["determinize", "--input", str(tmp_path / "a.json"), "--direction", "fwd"],
            "des parallel": ["des", "parallel", str(tmp_path / "a.json"), str(tmp_path / "b.json")],
        }
        path = str(tmp_path / target)
        assert main(inputs[command] + ["--output", path]) == 2
        assert f"error: cannot write {path}: " in capsys.readouterr().err

    def test_usage_errors_exit_1(self):
        assert main(["reduce", "--method", "nope", "--input", "a.json"]) == 1
        assert main(["alternate", "--schedule", "xx", "--input", "a.json"]) == 1

    def test_wri_on_plain_automaton_exits_2(self, tmp_path):
        path = write(tmp_path, "a.json", SHOWCASE_DOC)
        assert main(["reduce", "--method", "wri", "--input", path]) == 2
