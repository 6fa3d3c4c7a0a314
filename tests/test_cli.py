import argparse
import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import afkit
from afkit import bratteli, dimgroup, elliott, jsonio, ordgrp, perturb
from afkit.cli import _build_parser, main

from helpers import uhf_certificate


def run(capsys, argv, stdin: str = ""):
    import sys

    old = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        code = main(argv)
    finally:
        sys.stdin = old
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(jsonio.canonical_dumps(obj))
    return str(path)


class TestGenAndPipes:
    def test_gen_car_matches_library(self, capsys):
        code, out = run(capsys, ["gen", "car", "--depth", "5"])
        assert code == 0
        assert out == jsonio.canonical_dumps(jsonio.diagram_to_obj(bratteli.gen_car(5)))

    def test_car_supernatural_pipe(self, capsys):
        _, car = run(capsys, ["gen", "car", "--depth", "5"])
        code, out = run(capsys, ["supernatural", "--depth", "5"], stdin=car)
        assert code == 0
        assert json.loads(out) == {"2": 5}

    def test_gen_parse_round_trip(self, capsys):
        for depth in (0, 1, 5, 12, 20):
            _, out = run(capsys, ["gen", "car", "--depth", str(depth)])
            assert jsonio.diagram_from_obj(json.loads(out)) == bratteli.gen_car(depth)
        for depth in (0, 3, 11, 20):
            _, out = run(capsys, ["gen", "trace", "--depth", str(depth), "--table", "2,4,-"])
            parsed = jsonio.diagram_from_obj(json.loads(out))
            assert parsed == bratteli.gen_trace_diagram({0: 2, 1: 4, 2: None}, depth)

    def test_identity_telescope_is_byte_identical(self, capsys):
        _, car = run(capsys, ["gen", "car", "--depth", "6"])
        code, out = run(capsys, ["telescope", "--stages", "0,1,2,3,4,5,6"], stdin=car)
        assert code == 0
        assert out == car

    def test_telescope_matches_library(self, capsys, tmp_path):
        path = write(tmp_path, "car.json", jsonio.diagram_to_obj(bratteli.gen_car(6)))
        code, out = run(capsys, ["telescope", path, "--stages", "0,2,4,6"])
        assert code == 0
        expected = bratteli.telescope(bratteli.gen_car(6), (0, 2, 4, 6))
        assert out == jsonio.canonical_dumps(jsonio.diagram_to_obj(expected))


class TestVerdicts:
    def test_validate_ok(self, capsys, tmp_path):
        path = write(tmp_path, "d.json", jsonio.diagram_to_obj(bratteli.gen_car(3)))
        code, out = run(capsys, ["validate", path])
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_validate_refuted_with_vertex(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "bad.json",
            {"levels": [[1], [3]], "edges": [[[2]]], "unital": True},
        )
        code, out = run(capsys, ["validate", path])
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "refuted" and payload["vertex"] == [1, 0]

    def test_validate_certificate_unital_claim(self, capsys, tmp_path):
        ok_cert = {
            "stages": [{"rank": 1, "unit": [1]}, {"rank": 1, "unit": [2]}],
            "bonds": [[[2]]],
            "unital": True,
        }
        path = write(tmp_path, "cert.json", ok_cert)
        code, out = run(capsys, ["validate", path])
        assert code == 0
        broken = dict(ok_cert)
        broken["stages"] = [{"rank": 1, "unit": [1]}, {"rank": 1, "unit": [3]}]
        path = write(tmp_path, "broken.json", broken)
        code, out = run(capsys, ["validate", path])
        assert code == 1
        assert out == (
            '{"kind":"certificate","reason":"bond at gap 0 does not carry the unit forward","status":"refuted"}\n'
        )
        # every other reader of the claim rejects the certificate as input
        code, out = run(capsys, ["cert-to-af", path])
        assert code == 3
        assert json.loads(out)["error"] == "certificate: bond at gap 0 does not carry the unit forward"

    def test_inconsistent_unital_diagram_still_decodes(self, capsys, tmp_path):
        # the unital claim is checked by the readers that rely on it, not by decoding
        path = write(tmp_path, "bad.json", {"levels": [[1], [3]], "edges": [[[2]]], "unital": True})
        code, out = run(capsys, ["telescope", path, "--stages", "0,1"])
        assert code == 0 and json.loads(out)["levels"] == [[1], [3]]
        code, out = run(capsys, ["validate", path])
        assert code == 1 and json.loads(out)["vertex"] == [1, 0]

    def test_flags_must_be_json_booleans(self, capsys, tmp_path):
        diagram = {"levels": [[1], [2]], "edges": [[[2]]], "unital": "false"}
        cert = {
            "stages": [{"rank": 1, "unit": [1]}, {"rank": 1, "unit": [2]}],
            "bonds": [[[2]]],
            "unital": "false",
        }
        for obj, decode in ((diagram, jsonio.diagram_from_obj), (cert, jsonio.certificate_from_obj)):
            code, out = run(capsys, ["validate", write(tmp_path, "x.json", obj)])
            assert code == 3 and json.loads(out)["status"] == "input-error"
            for flag in ("false", 1, None):
                with pytest.raises(jsonio.SchemaError):
                    decode({**obj, "unital": flag})
            assert decode({**obj, "unital": True}).unital is True
            assert decode({k: v for k, v in obj.items() if k != "unital"}).unital is False
        with pytest.raises(jsonio.SchemaError):
            jsonio.limit_hom_from_obj({"stage": 0, "matrix": [[1]], "positive": "false"})

    @pytest.mark.parametrize(
        "obj",
        [
            {"nStages": "garbage", "alpha": 5},
            {"nStages": [0], "mStages": [0], "alpha": [[[-1]]]},
            {"steps": "junk"},
            {"steps": [{"side": "left", "op": "flip"}]},
        ],
    )
    def test_validate_decodes_witness_payloads(self, capsys, tmp_path, obj):
        code, out = run(capsys, ["validate", write(tmp_path, "w.json", obj)])
        assert code == 3 and json.loads(out)["status"] == "input-error"

    def test_validate_accepts_witness_payloads(self, capsys, tmp_path):
        zigzag = {"nStages": [0], "mStages": [0], "alpha": [[[1]]], "beta": []}
        equivalence = {"steps": [{"side": "left", "op": "telescope", "stages": [0, 2]}]}
        for obj, kind in ((zigzag, "zigzag"), (equivalence, "equivalence")):
            code, out = run(capsys, ["validate", write(tmp_path, "w.json", obj)])
            assert code == 0 and out == '{"kind":"%s","status":"ok"}\n' % kind

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out = run(capsys, ["validate", str(path)])
        assert code == 3
        payload = json.loads(out)
        assert payload["status"] == "input-error" and "line" in payload["error"]

    def test_schema_error_is_input_error(self, capsys, tmp_path):
        path = write(tmp_path, "odd.json", {"levels": [[1]], "edges": [[["x"]]]})
        code, out = run(capsys, ["validate", str(path)])
        assert code == 3

    def test_simple_on_car(self, capsys, tmp_path):
        path = write(tmp_path, "car.json", jsonio.diagram_to_obj(bratteli.gen_car(5)))
        code, out = run(capsys, ["simple", path])
        assert code == 0 and json.loads(out)["witnessed"] is True

    def test_simple_blocked(self, capsys, tmp_path):
        d = bratteli.gen_trace_diagram({0: 2, 1: None}, 8)
        path = write(tmp_path, "t.json", jsonio.diagram_to_obj(d))
        code, out = run(capsys, ["simple", path])
        assert code == 2
        assert json.loads(out)["blocked"] == [3, 0]


class TestConversions:
    def test_k0(self, capsys, tmp_path):
        path = write(tmp_path, "alg.json", {"summands": [2, 3]})
        code, out = run(capsys, ["k0", path])
        assert code == 0
        assert json.loads(out) == {"rank": 2, "unit": [2, 3]}

    def test_path_count(self, capsys, tmp_path):
        path = write(tmp_path, "car.json", jsonio.diagram_to_obj(bratteli.gen_car(3)))
        code, out = run(capsys, ["path-count", path, "--from", "0,0", "--to", "3,0"])
        assert code == 0 and json.loads(out) == 8

    def test_af_cert_cycle(self, capsys, tmp_path):
        seq = bratteli.af_sequence_of_diagram(bratteli.gen_car(4))
        seq_path = write(tmp_path, "seq.json", jsonio.sequence_to_obj(seq))
        code, cert_out = run(capsys, ["af-to-cert", seq_path])
        assert code == 0
        assert cert_out == jsonio.canonical_dumps(
            jsonio.certificate_to_obj(dimgroup.certificate_of_af(seq))
        )
        cert_path = write(tmp_path, "cert.json", json.loads(cert_out))
        code, seq_out = run(capsys, ["cert-to-af", cert_path])
        assert code == 0
        assert json.loads(seq_out) == jsonio.sequence_to_obj(seq)

    def test_diagram_cycle(self, capsys, tmp_path):
        seq = bratteli.af_sequence_of_diagram(bratteli.gen_car(3))
        seq_path = write(tmp_path, "seq.json", jsonio.sequence_to_obj(seq))
        code, d_out = run(capsys, ["af-to-diagram", seq_path])
        assert code == 0
        d_path = write(tmp_path, "d.json", json.loads(d_out))
        code, seq_out = run(capsys, ["diagram-to-af", d_path])
        assert code == 0
        assert json.loads(seq_out) == jsonio.sequence_to_obj(seq)

    def test_diagram_to_af_reports_vertex(self, capsys, tmp_path):
        path = write(
            tmp_path, "bad.json", {"levels": [[1], [3]], "edges": [[[2]]], "unital": True}
        )
        code, out = run(capsys, ["diagram-to-af", path])
        assert code == 1
        assert json.loads(out)["vertex"] == [1, 0]

    def test_af_to_diagram_is_the_certificate_tower(self, capsys, tmp_path):
        seq = bratteli.af_sequence_of_diagram(bratteli.gen_trace_diagram({0: 2, 1: 4}, 6))
        seq_path = write(tmp_path, "seq.json", jsonio.sequence_to_obj(seq))
        _, d_out = run(capsys, ["af-to-diagram", seq_path])
        _, cert_out = run(capsys, ["af-to-cert", seq_path])
        diagram = jsonio.diagram_from_obj(json.loads(d_out))
        assert diagram == jsonio.certificate_from_obj(json.loads(cert_out)) == seq

    def test_supernatural_cofactor_is_unknown(self, capsys, tmp_path):
        # a 61-digit semiprime whose two prime factors lie beyond the trial bound
        n = (10**30 + 57) * (3 * 10**30 + 91)
        path = write(tmp_path, "d.json", {"levels": [[1], [2 * n]], "edges": [[[2 * n]]], "unital": True})
        code, out = run(capsys, ["supernatural", path])
        assert code == 2
        assert out == '{"cofactor":%d,"factors":{"2":1},"status":"unknown"}\n' % n

    def test_hom_mult_follows_its_own_summand_order(self, capsys, tmp_path):
        # mult rows and columns index the hom's target and source summands as written
        def seq(target, mult):
            hom = {"source": {"summands": [1]}, "target": {"summands": target}, "mult": mult}
            return {"algebras": [{"summands": [1]}, {"summands": target}], "homs": [hom]}

        unsorted = write(tmp_path, "unsorted.json", seq([2, 1], [[2], [1]]))
        by_hand = write(tmp_path, "sorted.json", seq([1, 2], [[1], [2]]))
        for command in ("validate", "af-to-cert", "af-to-diagram"):
            code, out = run(capsys, [command, unsorted])
            assert code == 0 and (code, out) == run(capsys, [command, by_hand]), command
        # the block of size 1 gets load 2 in the order given, so sorting cannot rescue it
        code, out = run(capsys, ["af-to-cert", write(tmp_path, "over.json", seq([2, 1], [[1], [2]]))])
        assert code == 3 and "overflows" in json.loads(out)["error"]

    def test_unitalize(self, capsys, tmp_path):
        cert_obj = {
            "stages": [{"rank": 2, "unit": [1, 0]}, {"rank": 2, "unit": [2, 0]}],
            "bonds": [[[2, 0], [0, 3]]],
            "unital": False,
        }
        path = write(tmp_path, "cert.json", cert_obj)
        code, out = run(capsys, ["unitalize", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["stages"] == [{"rank": 1, "unit": [1]}, {"rank": 1, "unit": [2]}]
        assert payload["bonds"] == [[[2]]]


class TestSearchCommands:
    def test_shen(self, capsys, tmp_path):
        payload = {
            "cert": {
                "stages": [{"rank": 2}, {"rank": 1}, {"rank": 1}],
                "bonds": [[[1, 1]], [[1]]],
                "unital": False,
            },
            "theta": {"stage": 0, "matrix": [[1, 0], [0, 1]], "positive": True},
            "alpha": [1, -1],
        }
        path = write(tmp_path, "shen.json", payload)
        code, out = run(capsys, ["shen", path])
        assert code == 0
        got = json.loads(out)
        assert got["phi"] == [[1, 1]]
        assert got["thetaPrime"]["stage"] == 1

    def test_shen_unknown(self, capsys, tmp_path):
        payload = {
            "cert": {"stages": [{"rank": 1}, {"rank": 1}], "bonds": [[[2]]], "unital": False},
            "theta": {"stage": 0, "matrix": [[1]], "positive": True},
            "alpha": [1],
        }
        path = write(tmp_path, "shen.json", payload)
        code, out = run(capsys, ["shen", path])
        assert code == 2
        assert out == (
            '{"depth":1,"reason":"theta.matrix @ alpha survives every stage up to depth 1","status":"unknown"}\n'
        )

    def test_equiv_found_and_unknown(self, capsys, tmp_path):
        car6 = write(tmp_path, "car6.json", jsonio.diagram_to_obj(bratteli.gen_car(6)))
        tel = write(
            tmp_path,
            "tel.json",
            jsonio.diagram_to_obj(bratteli.telescope(bratteli.gen_car(6), (0, 2, 4, 6))),
        )
        code, out = run(capsys, ["equiv", car6, tel])
        assert code == 0
        witness = jsonio.equivalence_from_obj(json.loads(out)["witness"])
        assert bratteli.replay_equivalence(
            witness, bratteli.gen_car(6), bratteli.telescope(bratteli.gen_car(6), (0, 2, 4, 6))
        )
        three = write(
            tmp_path,
            "three.json",
            jsonio.diagram_to_obj(
                ordgrp.Tower(
                    tuple((3**s,) for s in range(7)),
                    tuple(ordgrp.PosMatrix(((3,),)) for _ in range(6)),
                    unital=True,
                )
            ),
        )
        code, out = run(capsys, ["equiv", car6, three])
        assert code == 2 and json.loads(out)["status"] == "unknown"

    def test_zigzag_and_verify(self, capsys, tmp_path):
        car = write(
            tmp_path,
            "car.json",
            jsonio.certificate_to_obj(
                dimgroup.certificate_of_af(bratteli.af_sequence_of_diagram(bratteli.gen_car(10)))
            ),
        )
        car4 = write(tmp_path, "car4.json", jsonio.certificate_to_obj(uhf_certificate(4, 5)))
        code, out = run(capsys, ["zigzag", car, car4, "--depth", "5"])
        assert code == 0
        witness_obj = json.loads(out)["witness"]
        w_path = write(tmp_path, "w.json", witness_obj)
        code, out = run(capsys, ["verify-zigzag", w_path, car, car4])
        assert code == 0
        corrupted = dict(witness_obj)
        corrupted["alpha"] = [
            [[x + 1 for x in row] for row in mat] for mat in witness_obj["alpha"]
        ]
        bad_path = write(tmp_path, "bad.json", corrupted)
        code, out = run(capsys, ["verify-zigzag", bad_path, car, car4])
        assert code == 1
        assert "violation" in json.loads(out)

    def test_zigzag_unknown_when_stalled(self, capsys, tmp_path):
        car = write(
            tmp_path,
            "car.json",
            jsonio.certificate_to_obj(
                dimgroup.certificate_of_af(bratteli.af_sequence_of_diagram(bratteli.gen_car(5)))
            ),
        )
        three = write(tmp_path, "three.json", jsonio.certificate_to_obj(uhf_certificate(3, 5)))
        code, out = run(capsys, ["zigzag", car, three, "--depth", "5"])
        assert code == 2
        payload = json.loads(out)
        assert payload["achieved"] == 0

    def test_zigzag_zero_budget_is_unknown(self, capsys, tmp_path):
        car = write(
            tmp_path,
            "car.json",
            jsonio.certificate_to_obj(
                dimgroup.certificate_of_af(bratteli.af_sequence_of_diagram(bratteli.gen_car(4)))
            ),
        )
        code, out = run(capsys, ["zigzag", car, car, "--depth", "2", "--budget", "0"])
        assert code == 2
        assert out == '{"achieved":null,"requested":2,"status":"unknown","witness":null}\n'

    def test_zigzag_without_seed_map_is_unknown(self, capsys, tmp_path):
        # no positive unit-preserving map carries unit (2) to unit 3^m
        left = ordgrp.Tower(((2,), (4,)), (ordgrp.PosMatrix(((2,),)),), unital=True)
        a = write(tmp_path, "a.json", jsonio.certificate_to_obj(left))
        b = write(tmp_path, "b.json", jsonio.certificate_to_obj(uhf_certificate(3, 2)))
        code, out = run(capsys, ["zigzag", a, b, "--depth", "1"])
        assert code == 2
        assert out == (
            '{"reason":"no positive unit-preserving seed map exists within the stage supply","status":"unknown"}\n'
        )


CAR3 = jsonio.canonical_dumps(jsonio.diagram_to_obj(bratteli.gen_car(3)))
CAR3_CERT = jsonio.canonical_dumps(jsonio.certificate_to_obj(uhf_certificate(2, 3)))
BARE_CERT = '{"bonds":[],"stages":[{"rank":1}]}'
NESTED = "[" * 100_000
SEED_WITNESS = '{"alpha":[[[1]]],"beta":[],"mStages":[0],"nStages":[0]}'
EMPTY_WITNESS = '{"alpha":[],"beta":[],"mStages":[],"nStages":[]}'


@pytest.mark.parametrize(
    "argv, stdin, named",
    [
        (["telescope", "--stages", "0,5"], CAR3, "exceeds diagram depth"),
        (["path-count", "--from", "0,0", "--to", "9,0"], CAR3, "out of range"),
        (["moduli", "--n", "0"], "", "n must be >= 1"),
        (["moduli", "--k", "-1"], "", "k must be >= 0"),
        (["moduli", "--n", "1100"], "", "--n <= 100"),
        (["moduli", "--n", "3", "--k", "1200"], "", "--k <= 100"),
        (["gen", "car", "--depth", "-1"], "", "depth must be >= 0"),
        (["perturb-demo", "--n", "3", "--d", "2"], "", "d >= n"),
        (["zigzag", "CERT", "CERT", "--depth", "x"], "", "invalid int value"),
        (["gen", "car", "--depth", "x"], "", "invalid int value"),
        (["telescope", "DIAGRAM"], "", "required: --stages"),
        (["path-count", "DIAGRAM", "--from", "0,0", "--to", "-1,0"], "", "expected one argument"),
        (["supernatural", "--depth", "-5"], CAR3, "depth must be >= 0"),
        (["zigzag", "CERT", "CERT", "--budget", "-1"], "", "budget must be >= 0"),
        (["equiv", "DIAGRAM", "DIAGRAM", "--budget", "-1"], "", "budget must be >= 0"),
        (["perturb-demo", "--k", "-1"], "", "k must be >= 0"),
        (["perturb-demo", "--n", "0"], "", "n must be >= 1"),
        (["verify-zigzag", "SEED_WITNESS", "BARE_CERT", "BARE_CERT"], "", "need unital certificates"),
        (["verify-zigzag", "EMPTY_WITNESS", "CERT", "CERT"], "", "needs the seed map alpha_0"),
        (["validate", "NESTED"], "", "nested too deeply"),
        (["simple"], NESTED, "nested too deeply"),
    ],
    ids=[
        "telescope",
        "path-count",
        "moduli-n",
        "moduli-k",
        "moduli-n-past-bound",
        "moduli-k-past-bound",
        "gen",
        "perturb-demo",
        "zigzag-depth-not-int",
        "gen-depth-not-int",
        "telescope-no-stages",
        "path-count-dash-vertex",
        "supernatural-negative-depth",
        "zigzag-negative-budget",
        "equiv-negative-budget",
        "perturb-demo-negative-k",
        "perturb-demo-zero-n",
        "verify-zigzag-non-unital",
        "verify-zigzag-empty-witness",
        "validate-deeply-nested-json",
        "simple-deeply-nested-stdin",
    ],
)
def test_bad_arguments_are_input_errors(capsys, tmp_path, argv, stdin, named):
    # exit 1 is kept for refutations that name a witness; usage errors are exit 3 too
    files = {
        "CERT": CAR3_CERT,
        "DIAGRAM": CAR3,
        "BARE_CERT": BARE_CERT,
        "SEED_WITNESS": SEED_WITNESS,
        "EMPTY_WITNESS": EMPTY_WITNESS,
        "NESTED": NESTED,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out = run(capsys, argv, stdin=stdin)
    payload = json.loads(out)
    assert code == 3 and payload["status"] == "input-error"
    assert named in payload["error"]


def test_integers_of_any_size(capsys):
    # Python caps int<->str conversion at 4300 digits unless the CLI lifts the cap
    big = 10**2200
    diagram = jsonio.canonical_dumps({"levels": [[1], [1], [1]], "edges": [[[big]], [[big]]], "unital": False})
    code, out = run(capsys, ["telescope", "--stages", "0,2"], stdin=diagram)
    assert code == 0 and json.loads(out)["edges"] == [[[big * big]]]
    code, out = run(capsys, ["path-count", "--from", "0,0", "--to", "2,0"], stdin=diagram)
    assert code == 0 and json.loads(out) == big * big
    label = "1" + "0" * 4499
    text = '{"edges":[[[%s]]],"levels":[[1],[%s]],"unital":true}' % (label, label)
    code, out = run(capsys, ["validate"], stdin=text)
    assert (code, out) == (0, '{"depth":1,"kind":"diagram","status":"ok"}\n')


def test_printed_status_alone_sets_the_exit_code(capsys, tmp_path, monkeypatch):
    exit_of = {"ok": 0, "refuted": 1, "unknown": 2, "input-error": 3}
    car3_cert = jsonio.certificate_from_obj(json.loads(CAR3_CERT))
    witness = jsonio.zigzag_to_obj(elliott.build_zigzag(car3_cert, car3_cert, depth=2, budget=1000))
    shen_cert = {"stages": [{"rank": 2}, {"rank": 1}, {"rank": 1}], "bonds": [[[1, 1]], [[1]]], "unital": False}
    n = (10**30 + 57) * (3 * 10**30 + 91)
    files = {
        "DIAGRAM": CAR3,
        "CERT": CAR3_CERT,
        "BAD_UNITAL": {"levels": [[1], [3]], "edges": [[[2]]], "unital": True},
        "NON_UNITAL_SEQ": {
            "algebras": [{"summands": [1]}, {"summands": [3]}],
            "homs": [{"source": {"summands": [1]}, "target": {"summands": [3]}, "mult": [[2]]}],
        },
        "BROKEN_CERT": {"stages": [{"rank": 1, "unit": [1]}, {"rank": 1, "unit": [3]}], "bonds": [[[2]]], "unital": True},
        "NESTED": NESTED,
        "BLOCKED": jsonio.diagram_to_obj(bratteli.gen_trace_diagram({0: 2, 1: None}, 8)),
        "THREE": jsonio.diagram_to_obj(
            ordgrp.Tower(tuple((3**s,) for s in range(4)), (ordgrp.PosMatrix(((3,),)),) * 3, unital=True)
        ),
        "COFACTOR": {"levels": [[1], [2 * n]], "edges": [[[2 * n]]], "unital": True},
        "SHEN": {"cert": shen_cert, "theta": {"stage": 0, "matrix": [[1, 0], [0, 1]], "positive": True}, "alpha": [1, -1]},
        "SHEN_UNKNOWN": {
            "cert": {"stages": [{"rank": 1}, {"rank": 1}], "bonds": [[[2]]], "unital": False},
            "theta": {"stage": 0, "matrix": [[1]], "positive": True},
            "alpha": [1],
        },
        "NO_SEED": jsonio.certificate_to_obj(ordgrp.Tower(((2,), (4,)), (ordgrp.PosMatrix(((2,),)),), unital=True)),
        "UHF3": jsonio.certificate_to_obj(uhf_certificate(3, 2)),
        "WITNESS": witness,
        "BAD_WITNESS": {**witness, "alpha": [[[x + 1 for x in row] for row in m] for m in witness["alpha"]]},
        "ALGEBRA": {"summands": [2, 3]},
        "SEQ": jsonio.sequence_to_obj(bratteli.af_sequence_of_diagram(bratteli.gen_car(3))),
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(obj if isinstance(obj, str) else jsonio.canonical_dumps(obj))
    cases = [
        ["validate", "DIAGRAM"],
        ["validate", "BAD_UNITAL"],
        ["validate", "NON_UNITAL_SEQ"],
        ["validate", "BROKEN_CERT"],
        ["validate", "NESTED"],
        ["simple", "DIAGRAM"],
        ["simple", "BLOCKED"],
        ["supernatural", "DIAGRAM"],
        ["supernatural", "COFACTOR"],
        ["shen", "SHEN"],
        ["shen", "SHEN_UNKNOWN"],
        ["shen", "DIAGRAM"],
        ["equiv", "DIAGRAM", "DIAGRAM"],
        ["equiv", "DIAGRAM", "THREE"],
        ["zigzag", "CERT", "CERT", "--depth", "2"],
        ["zigzag", "CERT", "CERT", "--depth", "2", "--budget", "0"],
        ["zigzag", "NO_SEED", "UHF3", "--depth", "1"],
        ["zigzag", "CERT", "DIAGRAM"],
        ["verify-zigzag", "WITNESS", "CERT", "CERT"],
        ["verify-zigzag", "BAD_WITNESS", "CERT", "CERT"],
        ["verify-zigzag", "WITNESS", "CERT", "NESTED"],
        ["diagram-to-af", "BAD_UNITAL"],
        ["gen", "car", "--depth", "-1"],
        # outputs without a status
        ["gen", "car", "--depth", "3"],
        ["gen", "trace", "--depth", "3", "--table", "2,-"],
        ["path-count", "DIAGRAM", "--from", "0,0", "--to", "3,0"],
        ["telescope", "DIAGRAM", "--stages", "0,3"],
        ["k0", "ALGEBRA"],
        ["diagram-to-af", "DIAGRAM"],
        ["af-to-cert", "SEQ"],
        ["af-to-diagram", "SEQ"],
        ["cert-to-af", "CERT"],
        ["unitalize", "CERT"],
        ["moduli"],
    ]
    seen = {}
    for argv in cases:
        code, out = run(capsys, [str(tmp_path / a) if a in files else a for a in argv])
        doc = json.loads(out)
        status = doc.get("status") if isinstance(doc, dict) else None
        assert code == (0 if status is None else exit_of[status]), (argv, out)
        seen.setdefault(argv[0], set()).add(status)
    assert seen == {
        "validate": {"ok", "refuted", "input-error"},
        "simple": {"ok", "unknown"},
        "supernatural": {None, "unknown"},
        "shen": {"ok", "unknown", "input-error"},
        "equiv": {"ok", "unknown"},
        "zigzag": {"ok", "unknown", "input-error"},
        "verify-zigzag": {"ok", "refuted", "input-error"},
        "diagram-to-af": {"refuted", None},
        "gen": {"input-error", None},
        "path-count": {None},
        "telescope": {None},
        "k0": {None},
        "af-to-cert": {None},
        "af-to-diagram": {None},
        "cert-to-af": {None},
        "unitalize": {None},
        "moduli": {None},
    }
    # perturb-demo's report has no status: it exits 1 exactly when it does not pass
    code, out = run(capsys, ["perturb-demo"])
    assert json.loads(out)["pass"] is True and code == 0
    demo = perturb.glimm_demo
    monkeypatch.setattr(perturb, "glimm_demo", lambda *args: {**demo(*args), "pass": False})
    code, out = run(capsys, ["perturb-demo"])
    assert json.loads(out)["pass"] is False and code == 1


def test_readme_lists_the_parser_commands():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("## CLI", 1)[1].split("```", 2)[1]
    listed = []
    for line in block.strip().splitlines():
        tokens = line.split()
        listed.append(tokens[0])
        while len(tokens) > 2 and tokens[1] == "/":  # af-to-diagram / diagram-to-af / ... FILE
            tokens = tokens[2:]
            listed.append(tokens[0])
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(listed) == sorted(sub.choices)


def test_import_does_not_load_numpy():
    # every CLI process and benchmark worker pays for these imports at start-up
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(afkit.__file__)))
    for modules, heavy in (
        ("afkit.cli", ("numpy", "sympy")),
        ("afkit.bratteli, afkit.dimgroup, afkit.elliott, afkit.jsonio", ("sympy",)),
    ):
        code = f"import sys, {modules}; print(sorted(set({heavy!r}) & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert proc.stdout.strip() == "[]", modules


def test_bench_tracer_targets_resolve():
    # the benchmark's --trace 1 rebinds these names; a missing one breaks tracing
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
    spec = importlib.util.spec_from_file_location("bench_tracer", os.path.join(bench, "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _ in tracer.FUNCTIONS:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
    for module, cls, attr, _ in tracer.METHODS:
        assert hasattr(getattr(importlib.import_module(module), cls), attr), (module, cls, attr)
    # the workloads build their inputs from these names, e.g. bratteli.LabeledBratteliDiagram
    for name in ("workloads.py", "pipelines.py"):
        with open(os.path.join(bench, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "afkit":
                for alias in node.names:
                    if node.module == "afkit":
                        modules[alias.asname or alias.name] = importlib.import_module(f"afkit.{alias.name}")
                    else:
                        assert hasattr(importlib.import_module(node.module), alias.name), (name, alias.name)
        assert modules, name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                assert hasattr(modules[node.value.id], node.attr), (name, node.value.id, node.attr)


def test_traced_conversion_sees_the_layer_calls(tmp_path):
    # the conversion table must look its functions up after the tracer has wrapped them
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    seq = write(tmp_path, "seq.json", jsonio.sequence_to_obj(bratteli.af_sequence_of_diagram(bratteli.gen_car(6))))
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(afkit.__file__)))
    runner = os.path.join(root, "bench", "cli_runner.py")
    subprocess.run([sys.executable, runner, str(trace), "af-to-cert", seq], capture_output=True, check=True, env=env)
    assert json.loads(trace.read_text())["calls"] == {
        "jsonio.decode": 32,
        "findim.AlgebraHom": 6,
        "ordgrp.mat_vec": 6,
        "ordgrp.apply": 6,
        "findim.af_sequence_violation": 1,
        "jsonio.encode": 8,
    }


def _pipe(argv, text: str) -> tuple:
    """Exit code and stdout of one afkit command reading text on stdin.

    run() needs pytest's capsys, which Hypothesis cannot share across examples.
    """
    old, sys.stdin = sys.stdin, io.StringIO(text)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = old
    return code, out.getvalue()


@st.composite
def unital_diagrams(draw) -> tuple:
    """Levels and edge rows of a unital diagram that reads as an AF sequence.

    Labels are small, so levels repeat labels out of order; every row and
    every column of an edge matrix is nonzero (positive labels, injective homs).
    """
    levels = [draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))]
    edges = []
    for _ in range(draw(st.integers(0, 4))):
        width = len(levels[-1])
        rows = draw(st.lists(st.lists(st.integers(0, 2), min_size=width, max_size=width), min_size=1, max_size=4))
        for i, row in enumerate(rows):
            row[i % width] = row[i % width] or 1
        for j in range(width):
            rows[j % len(rows)][j] = rows[j % len(rows)][j] or 1
        edges.append(rows)
        levels.append([sum(e * x for e, x in zip(row, levels[-1])) for row in rows])
    return levels, edges


@settings(max_examples=80, deadline=None)
@given(unital_diagrams())
def test_conversions_round_trip_to_the_stably_sorted_diagram(diagram):
    levels, edges = diagram
    text = jsonio.canonical_dumps({"levels": levels, "edges": edges, "unital": True})
    for command in ("diagram-to-af", "af-to-cert", "cert-to-af", "af-to-diagram"):
        code, text = _pipe([command], text)
        assert code == 0, (command, text)
    perms = [sorted(range(len(level)), key=level.__getitem__) for level in levels]
    want = {
        "levels": [[level[i] for i in perm] for level, perm in zip(levels, perms)],
        "edges": [[[rows[i][j] for j in perms[s]] for i in perms[s + 1]] for s, rows in enumerate(edges)],
        "unital": True,
    }
    assert text == jsonio.canonical_dumps(want)


@st.composite
def certificates(draw) -> ordgrp.Tower:
    """Unitless, partly unitless and fully unit-carrying certificates."""
    ranks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    bonds = [
        ordgrp.PosMatrix(tuple(tuple(draw(st.integers(0, 2)) for _ in range(r)) for _ in range(r2)))
        for r, r2 in zip(ranks, ranks[1:])
    ]
    units = [draw(st.none() | st.tuples(*[st.integers(0, 3)] * r)) for r in ranks]
    return ordgrp.Tower(tuple(units), tuple(bonds), ranks=tuple(ranks))


@settings(max_examples=200, deadline=None)
@given(certificates())
@example(ordgrp.Tower((None,), (), ranks=(1,)))
def test_certificates_round_trip(cert):
    text = jsonio.canonical_dumps(jsonio.certificate_to_obj(cert))
    again = jsonio.certificate_from_obj(json.loads(text))
    assert again == cert
    assert jsonio.canonical_dumps(jsonio.certificate_to_obj(again)) == text
    if cert.ranks == (1,) and cert.levels == (None,):
        assert text == '{"bonds":[],"stages":[{"rank":1}],"unital":false}\n'


class TestModuliCommand:
    def test_values_match_library(self, capsys):
        code, out = run(capsys, ["moduli", "--eps", "1/2", "--n", "2", "--k", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["delta0"] == "1/192"
        assert payload["Delta2"] == perturb.Delta2(2, 3)
        assert payload["DeltaGlimm"] == perturb.DeltaGlimm(2, 3)

    def test_bad_eps(self, capsys):
        code, out = run(capsys, ["moduli", "--eps", "7/2"])
        assert code == 3


class TestPerturbDemoCommand:
    def test_reports_and_passes(self, capsys):
        code, out = run(
            capsys,
            ["perturb-demo", "--n", "2", "--k", "4", "--seed", "11", "--sizes", "1,2"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert {c["name"] for c in payload["exchange"]["checks"]} == {
            "v*v = 1",
            "v*pv = q",
            "||v - 1||",
        }

    def test_deterministic_given_seed(self, capsys):
        _, out1 = run(capsys, ["perturb-demo", "--seed", "3"])
        _, out2 = run(capsys, ["perturb-demo", "--seed", "3"])
        assert out1 == out2
