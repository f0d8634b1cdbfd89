import hashlib
import json

import pytest

from balines.cli import UsageError, main, parse_range


def run(args):
    return main(args)


def test_parse_range():
    assert parse_range("1..4") == [1, 2, 3, 4]
    assert parse_range("2,4,6") == [2, 4, 6]
    assert parse_range("3") == [3]
    assert parse_range("1..2,5") == [1, 2, 5]


def test_parse_range_checks_ends_before_expanding():
    # a range's ends are held to the option's bounds before range() runs
    assert parse_range("998..1000", "n") == [998, 999, 1000]
    assert parse_range("0..2", "mt") == [0, 1, 2]
    for text, message in [(f"1..{10 ** 20}", "--n must be <= 1000"),
                          (f"{-10 ** 20}..1", "--n must be >= 1"),
                          ("2,1001", "--n must be <= 1000")]:
        with pytest.raises(UsageError, match=message):
            parse_range(text, "n")


def test_construct_am1n(tmp_path):
    out = tmp_path / "am22.json"
    assert run(["construct", "am1n", "--m", "2", "--n", "2",
                "--precision", "256", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["e"] == ["-4/3", "1"]
    assert data["kind"] == "am1n"
    assert (tmp_path / "am22.json.manifest.json").exists()


def test_construct_twomult_and_tq(tmp_path):
    out = tmp_path / "tm.json"
    assert run(["construct", "twomult", "--m", "3", "--mt", "2", "--n", "4",
                "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["e"] is not None and len(data["e"]) == 4
    out2 = tmp_path / "tq.json"
    assert run(["construct", "tq", "--input", str(out), "--q", "3",
                "-o", str(out2)]) == 0
    expanded = json.loads(out2.read_text())
    assert len(expanded["lines"]) == 3 * len(data["lines"])


def test_construct_locus_and_random(tmp_path):
    out = tmp_path / "locus.json"
    assert run(["construct", "locus", "--mults", "2,1,1", "-o", str(out)]) == 0
    assert len(json.loads(out.read_text())["lines"]) == 3
    out2 = tmp_path / "rand.json"
    assert run(["construct", "random", "--m", "2", "--n", "2", "--seed", "1",
                "-o", str(out2)]) == 0
    data = json.loads(out2.read_text())
    assert all(l["alpha"] not in (None, "inf") for l in data["lines"][1:])


def test_locus_mults_in_exponent_notation(tmp_path):
    texts = {}
    for mults in ("2,1", "2e0,1", "2.0,1e0"):
        out = tmp_path / f"{mults}.json"
        assert run(["construct", "locus", "--mults", mults, "--precision", "128",
                    "-o", str(out)]) == 0
        texts[mults] = out.read_text()
    assert len(set(texts.values())) == 1


def test_certify_exit_codes(tmp_path):
    out = tmp_path / "c.json"
    run(["construct", "am1n", "--m", "4", "--n", "5", "-o", str(out)])
    assert run(["certify", "--input", str(out)]) == 0
    cert_path = tmp_path / "cert.json"
    assert run(["certify", "--family", "random", "--m", "2", "--n", "2",
                "--seed", "3", "-o", str(cert_path)]) == 1
    cert = json.loads(cert_path.read_text())
    assert cert["verdict"] == "fail"
    assert cert["max_residual_log2"] > -64


def test_certify_perturbed_fails(tmp_path):
    from balines.config import build_am1n, perturb_line

    cfg = perturb_line(build_am1n(3, 3, 256), 2, 1e-2)
    path = tmp_path / "pert.json"
    cfg.save(str(path))
    assert run(["certify", "--input", str(path)]) == 1


def _below_zero(record, k, precision):
    """record with line k's angle stored pi less, the same line."""
    import mpmath as mp

    from balines.numeric import hex_to_mpf, mpf_to_hex, working

    line = record["lines"][k]
    with working(precision):
        line["phi_hex"] = mpf_to_hex(hex_to_mpf(line["phi_hex"]) - mp.pi)
    return record


@pytest.mark.parametrize("cmd", ["certify", "hilbert"])
def test_a_line_stored_below_zero_answers_as_in_range(cmd, tmp_path, capsys):
    """Line 1, the first after the line at 0, stored as phi - pi: the load
    check measures the gaps mod pi, so certify passes as on the stored
    record and the Hilbert series of the numeric chart is the same."""
    from balines.config import build_am1n, random_type_m1n

    if cmd == "certify":
        record = build_am1n(2, 3, 256).to_json_dict()
    else:
        _write_numeric_chart(random_type_m1n(2, 5, 1, 256), tmp_path / "numeric.json")
        record = json.loads((tmp_path / "numeric.json").read_text())
    outputs = []
    for k in (None, 1):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(record if k is None else _below_zero(record, k, 256)))
        assert run([cmd, "--input", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload.pop("manifest")
        outputs.append(payload)
    if cmd == "certify":
        assert [c["verdict"] for c in outputs] == ["pass", "pass"]
    else:
        assert outputs[0] == outputs[1]
        assert outputs[0]["numerator"] == [1, 0, -1, 0, 0, 0, 0, 1, 1, 1, 1]


def test_an_angle_of_huge_exponent_is_refused_at_once(tmp_path, capsys):
    """A phi_hex of 2^1000000 exits 2 before anything reduces it, and one
    of 2^-1000000 floors to the line at 0 without a million-bit int."""
    import time

    from balines.config import build_am1n

    for phi_hex, words in (("0x1p1000000", "too large to reduce mod pi"),
                           ("0x1p-1000000", "coincide near phi = 0.0")):
        record = build_am1n(2, 3, 256).to_json_dict()
        record["lines"][1]["phi_hex"] = phi_hex
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(record))
        start = time.perf_counter()
        assert run(["certify", "--input", str(path)]) == 2
        assert time.perf_counter() - start < 2
        assert words in capsys.readouterr().err


def _general_record(path, precision, phis):
    """Write a general chart of lines of multiplicity 1 at the mpfs phis."""
    from balines.config import Configuration, Line

    lines = tuple(Line(1, phi) for phi in phis)
    record = Configuration(kind="general", precision=precision, chart=lines).to_json_dict()
    path.write_text(json.dumps(record))


@pytest.mark.parametrize("argv, code", [(["certify"], 1), (["construct", "tq"], 0)])
def test_a_tiny_angle_off_zero_stays_small(tmp_path, capsys, argv, code):
    """A general chart with a line at 2^-1000000000 and none at 0 loads (the
    gap check floors that line), and its expansion at q 2 keeps the half
    angle 2^-1000000001 and orders the lines without an int as wide as that
    exponent, which would take 125 MB a line."""
    import tracemalloc

    import mpmath as mp

    with mp.workprec(320):
        phis = [mp.mpf(2) ** -1000000000] + [mp.mpf(k) / 3 for k in (1, 3, 6)]
    path = tmp_path / "tiny.json"
    _general_record(path, 256, phis)
    tracemalloc.start()
    try:
        assert run([*argv, "--input", str(path), "--q", "2"]) == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20
    if argv[0] == "construct":
        lines = json.loads(capsys.readouterr().out)["lines"]
        assert lines[0]["phi_hex"] == "0x1p-1000000001"


def test_coincident_lines_at_1024_bits_exit_two(tmp_path, capsys):
    """Two lines 2^-600 apart at 1024 bits collide; the message names the
    lower angle to 10 digits."""
    import mpmath as mp

    with mp.workprec(1200):
        third = mp.mpf(1) / 3
        phis = [mp.mpf(0), third, third + mp.mpf(2) ** -600, mp.mpf(2)]
    path = tmp_path / "close.json"
    _general_record(path, 1024, phis)
    assert run(["certify", "--input", str(path)]) == 2
    assert "two lines coincide near phi = 0.3333333333\n" in capsys.readouterr().err


def test_certify_a_line_stored_below_zero(tmp_path):
    """The last line of am1n (2, 3) stored as phi - pi, the same line, loads
    at its exact angle and certifies as before."""
    from balines.config import build_am1n

    record = _below_zero(build_am1n(2, 3, 96).to_json_dict(), -1, 96)
    path = tmp_path / "below.json"
    path.write_text(json.dumps(record))
    assert record["lines"][-1]["phi_hex"].startswith("-")
    assert run(["certify", "--input", str(path)]) == 0


def test_hilbert_outputs(tmp_path):
    out = tmp_path / "h.json"
    csvp = tmp_path / "h.csv"
    code = run(["hilbert", "--m", "2", "--n", "2", "--D", "10",
                "-o", str(out), "--csv", str(csvp), "--check-closed-form"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["coefficients"] == [1, 0, 1, 1, 2, 2, 4, 4, 5, 6, 7]
    assert data["gorenstein"] is True and data["M"] == -6
    rows = csvp.read_text().strip().splitlines()
    assert rows[0] == "degree,b"
    assert rows[1] == "0,1" and rows[3] == "2,1"


def test_hilbert_input_twomult_with_mtilde_one(tmp_path):
    cfg, out = tmp_path / "tm.json", tmp_path / "h.json"
    assert run(["construct", "twomult", "--m", "2", "--mt", "1", "--n", "4",
                "-o", str(cfg)]) == 0
    assert run(["hilbert", "--input", str(cfg), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert (data["m"], data["n"]) == (2, 5)
    assert data["coefficients"][-1] == len(data["coefficients"]) - 7


def test_hilbert_random_not_gorenstein(tmp_path):
    out = tmp_path / "hr.json"
    code = run(["hilbert", "--random", "--m", "2", "--n", "2", "--seed", "1",
                "-o", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["gorenstein"] is False
    code2 = run(["hilbert", "--random", "--m", "2", "--n", "2", "--seed", "1",
                 "-o", str(out), "--check-closed-form"])
    assert code2 == 1


def test_scan_gorenstein(tmp_path):
    out = tmp_path / "scan.json"
    assert run(["scan", "gorenstein", "--m", "1..2", "--n", "2..3",
                "--samples", "2", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["all_pass"] is True
    assert len(data["items"]) == 4 * 3


def test_scan_certify_tq(tmp_path):
    out = tmp_path / "scan2.json"
    assert run(["scan", "certify", "--family", "tq", "--m", "1..2",
                "--n", "2", "--q", "1..3", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["all_pass"] is True


def test_scan_darboux(tmp_path):
    out = tmp_path / "scan3.json"
    assert run(["scan", "darboux", "--m", "1..2", "--n", "2",
                "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["all_pass"] is True
    assert all(i["factorization"] == "exact-pass" for i in data["items"])


def test_exact_requests_find_no_roots(tmp_path, monkeypatch):
    from balines import config, roots
    from oracles import eager_json

    def no_roots(*args):
        raise AssertionError("poly_roots called")

    monkeypatch.setattr(config, "poly_roots", no_roots)
    monkeypatch.setattr(roots, "poly_roots", no_roots)
    out = tmp_path / "out.json"
    assert run(["scan", "darboux", "--m", "1..3", "--n", "1..4", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["all_pass"] is True
    for m, n in [(1, 1), (2, 3), (3, 4)]:
        assert run(["hilbert", "--m", str(m), "--n", str(n),
                    "--check-closed-form", "-o", str(out)]) == 0
    monkeypatch.undo()
    # the lines built on first read are those found at once
    from balines.config import build_am1n, build_two_mult

    for argv, cfg in [(["am1n", "--m", "1", "--n", "1"], build_am1n(1, 1)),
                      (["am1n", "--m", "3", "--n", "5"], build_am1n(3, 5)),
                      (["twomult", "--m", "2", "--mt", "1", "--n", "4"],
                       build_two_mult(2, 1, 4)),
                      (["twomult", "--m", "3", "--n", "6"], build_two_mult(3, 0, 6))]:
        assert run(["construct"] + argv + ["-o", str(out)]) == 0
        assert out.read_text() == json.dumps(eager_json(cfg), indent=2, sort_keys=True)


def test_scan_certify_skips_a_collision(tmp_path, monkeypatch):
    from balines import config
    from balines.errors import CollisionError

    def collide(c):
        raise CollisionError("two lines coincide")

    monkeypatch.setattr(config, "_exact_chart", collide)
    out = tmp_path / "scan.json"
    assert run(["scan", "certify", "--family", "twomult", "--m", "2", "--mt", "1",
                "--n", "2", "-o", str(out)]) == 0
    (item,) = json.loads(out.read_text())["items"]
    assert item["skipped"].startswith("collision") and item["ok"] is True


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for p in (a, b):
        run(["construct", "am1n", "--m", "3", "--n", "4", "-o", str(p)])
    assert a.read_text() == b.read_text()
    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    for p in (ra, rb):
        run(["construct", "random", "--m", "2", "--n", "3", "--seed", "42",
             "-o", str(p)])
    assert ra.read_text() == rb.read_text()


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["construct", "nonsense"])
    assert err.value.code == 2


# Texts written to INPUT in place of a configuration, by name; the deep one
# overflows the JSON parser's recursion.
RAW_INPUT = {"not-an-object": "[1, 2]", "not-json": '{"kind": ',
             "deep-json": "[" * 200000}
# Keys of INPUT (the am1n (2, 2) record) overwritten with those of am1n
# (3, 2), which has as many slope lines, by name.
FOREIGN = {"e-of-am1n-3-2": "e", "ehat-of-am1n-3-2": "ehat"}
# Edits of INPUT that store a fraction with a zero denominator, by name.
ZERO_DENOMINATOR = {"e-1/0": lambda d: d["e"].__setitem__(0, "1/0"),
                    "ehat-1/0": lambda d: d["ehat"].__setitem__(0, "-3/0"),
                    "alpha-1/0": lambda d: d["lines"][1].update(alpha="1/0")}
# Edits of INPUT that make its record contradict its lines, give it an m
# that is not a positive int, store an angle that is not a hex string, one
# too large to reduce mod pi, one on top of the line at 0, a fraction with
# a zero denominator or an infinite slope, or name no known kind, by name.
EDITED = {"heavy-mult-4": lambda d: d["lines"][0].update(mult=4),
          "m-3": lambda d: d.update(m=3),
          "m-0": lambda d: d.update(m=0),
          "phi-hex-5": lambda d: d["lines"][1].update(phi_hex=5),
          "phi-hex-null": lambda d: d["lines"][1].update(phi_hex=None),
          "phi-hex-2^1000000": lambda d: d["lines"][1].update(phi_hex="0x1p1000000"),
          "phi-hex-2^-1000000": lambda d: d["lines"][1].update(phi_hex="0x1p-1000000"),
          "kind-5": lambda d: d.update(kind=5),
          "kind-bogus": lambda d: d.update(kind="bogus"),
          "alpha-inf": lambda d: d["lines"][1].update(alpha=float("inf")),
          **ZERO_DENOMINATOR}


def _general_at(bits):
    """An edit of INPUT into a general chart of precision bits that stores
    no slope, so that no slope check reads the precision before certify or
    hilbert does."""
    def edit(d):
        d.update(kind="general", precision_bits=bits)
        for ln in d["lines"]:
            ln["alpha"] = None
    return edit


# Edits of INPUT into a general chart, whose record is not checked against
# its lines: a heavy multiplicity that is not a positive integer, no line, a
# line twice, or a precision that is not an integer.
GENERAL_EDITED = {
    "general-mult-inf": lambda d: (d.update(kind="general"),
                                   d["lines"][0].update(mult=float("inf"))),
    "general-mult-0": lambda d: (d.update(kind="general"),
                                 d["lines"][0].update(mult=0)),
    "general-no-lines": lambda d: d.update(kind="general", lines=[]),
    "general-line-twice": lambda d: (d.update(kind="general"),
                                     d["lines"].append(dict(d["lines"][1]))),
    **{f"general-precision-{bits}": _general_at(bits) for bits in (300.0, 300.5)},
}
# Edits of the twomult (3, 1, 4) record, written to INPUT in its place, that
# leave its e or branch sign other than those build_two_mult picks, or its n
# odd, by name.
TWOMULT_EDITED = {
    "twomult-m-2": lambda d: (d.update(m=2), d["lines"][0].update(mult=2)),
    "twomult-sign-flipped": lambda d: d.update(e_branch_sign=-d["e_branch_sign"]),
    "twomult-n-3": lambda d: d.update(n=3),
}


def _swap_mults(d):
    """Swap the multiplicities of the first light line and of the heavy
    line after the phi = 0 one."""
    lines = d["lines"]
    light = next(ln for ln in lines if ln["mult"] == 1)
    heavy = next(ln for ln in lines[1:] if ln["mult"] != 1)
    light["mult"], heavy["mult"] = heavy["mult"], light["mult"]


# Edits, by name, of a random (2, 1^4) chart and of the am1n (2, 3) record
# expanded with q = 2, written to INPUT, that put a line of one slope group
# in another: the multiplicities no longer count the groups, or are
# counted right on the wrong lines.
GROUP_EDITED = {
    "random-light-mult-2": ("random", lambda d: d["lines"][1].update(mult=2)),
    "tq-mults-swapped": ("tq", _swap_mults),
}
# Integer fields of a record, by name: (family, field, value) written over
# the field of that family's file (tq is am1n (1, 3) expanded with q = 2).
# Each value is a bool, a float, a string or below what the builder gives.
RECORD_EDITED = {"tq-m-true": ("tq", "m", True), "tq-q-2.5": ("tq", "q", 2.5),
                 "tq-q-str": ("tq", "q", "2"), "tq-q-1": ("tq", "q", 1),
                 "twomult-mtilde-true": ("twomult", "mtilde", True),
                 "twomult-n-str": ("twomult", "n", "4"),
                 "random-m-2.0": ("random", "m", 2.0),
                 "random-n-true": ("random", "n", True)}
# Multiplicities of a locus written to INPUT, by name; the 2.5 line is not of
# integer multiplicity, which certify and hilbert need.
LOCUS = {"locus-2.5-1-1": (2.5, 1, 1)}
# Edits of the heavy multiplicity of the 2,1,1 locus, written to INPUT, into
# values that are not a positive finite number, by name.
LOCUS_EDITED = {f"locus-mult-{name}": value for name, value in
                [("0", 0), ("-1", -1), ("inf", float("inf")), ("true", True), ("str", "2")]}

# Fields of a record given a value too large for the arithmetic that reads
# it, by name: (family, field, value) as in RECORD_EDITED.
TOO_LARGE = {"twomult-precision-10^400": ("twomult", "precision_bits", 10 ** 400),
             "random-q-10^400": ("random", "q", 10 ** 400)}
# Fields of a record given a valid value that its lines refute, by name:
# (family, field, value) as in RECORD_EDITED.  Each ran in the closed forms
# or in the slope groups for 0.3 s to minutes before the line count or the
# stray q refused it.
INFLATED = {"am1n-n-20000": ("am1n", "n", 20000), "random-q-1000": ("random", "q", 1000)}


# Integer options above their bounds (cli._BOUNDS), each of which ran for
# longer than 8 s or ended in an OverflowError traceback before it was bounded.
OPTION_TOO_LARGE = [
    ["certify", "--family", "am1n", "--m", "2", "--n", "3", "--q", str(10 ** 41)],
    ["hilbert", "--m", "2", "--n", "3", "--D", str(10 ** 41)],
    ["construct", "am1n", "--m", "2", "--n", str(10 ** 20)],
    ["certify", "--family", "am1n", "--m", "2", "--n", "3", "--precision", str(10 ** 8)],
    ["certify", "--family", "am1n", "--m", "1", "--n", "2", "--threshold-log2", str(10 ** 24)],
    ["scan", "certify", "--m", "1", "--n", f"1..{10 ** 20}"],
]


def _case_id(argv, drop):
    """A bad-input case's id: its argv without option dashes, then its edit
    name, joined by '-'."""
    return "-".join([a.lstrip("-") for a in argv] + ([drop] if drop else []))


# (argv, key dropped from the --input JSON written to INPUT, or a RAW_INPUT,
# FOREIGN, EDITED, GENERAL_EDITED, TWOMULT_EDITED, GROUP_EDITED,
# RECORD_EDITED, LOCUS, LOCUS_EDITED, TOO_LARGE or INFLATED name);
# MISSING stands for a path that does not exist, UNWRITABLE for an output
# path in a directory that does not exist.  The cases of _NUMBERED keep the
# positional ids they were first collected under (argv<k>-<name>), so that
# none is renamed; the list is closed, and every later case goes into
# BAD_INPUT with an id from _case_id, which no other row's place changes.
_NUMBERED = [
    (["construct", "am1n", "--n", "2"], None),
    (["construct", "twomult", "--m", "2"], None),
    (["construct", "random"], None),
    (["construct", "locus"], None),
    (["construct", "tq", "--q", "2"], None),
    (["certify", "--family", "am1n", "--m", "2"], None),
    (["hilbert", "--random", "--n", "2"], None),
    (["certify", "--input", "INPUT"], "lines"),
    (["hilbert", "--input", "INPUT"], "kind"),
    (["construct", "tq", "--input", "INPUT", "--q", "2"], "precision_bits"),
    (["construct", "am1n", "--m", "0", "--n", "2"], None),
    (["construct", "am1n", "--m", "2", "--n", "2", "--precision", "10"], None),
    (["hilbert", "--m", "2", "--n", "2", "--D", "3"], None),
    (["certify", "--input", "INPUT"], "not-an-object"),
    (["hilbert", "--input", "INPUT"], "not-an-object"),
    (["certify", "--input", "INPUT"], "not-json"),
    (["construct", "locus", "--mults", "a,b"], None),
    (["construct", "locus", "--mults", "0,1"], None),
    (["scan", "certify", "--m", "x"], None),
    (["scan", "certify", "--m", "0..1", "--n", "1"], None),
    (["scan", "darboux", "--m", "1", "--n", "0"], None),
    (["certify", "--input", "MISSING"], None),
    (["hilbert", "--input", "MISSING"], None),
    (["construct", "tq", "--input", "MISSING", "--q", "2"], None),
    (["construct", "locus", "--mults", "3"], None),
    (["scan", "certify", "--m", "3..1", "--n", "2"], None),
    (["construct", "locus", "--mults", "inf,1"], None),
    (["construct", "locus", "--mults", "nan,1"], None),
    (["certify", "--input", "INPUT"], "e-of-am1n-3-2"),
    (["hilbert", "--input", "INPUT"], "ehat-of-am1n-3-2"),
    (["certify", "--input", "INPUT"], "heavy-mult-4"),
    (["hilbert", "--input", "INPUT"], "m-3"),
    (["scan", "darboux", "--m", "1", "--mt", "2", "--n", "2"], None),
    (["scan", "certify", "--family", "twomult", "--m", "1", "--n", "3"], None),
    (["certify"], None),
    (["hilbert", "--m", "2"], None),
    (["certify", "--input", "INPUT"], "twomult-m-2"),
    (["construct", "tq", "--input", "INPUT", "--q", "2"], "twomult-sign-flipped"),
    (["hilbert", "--input", "INPUT"], "locus-2.5-1-1"),
    (["certify", "--input", "INPUT"], "locus-2.5-1-1"),
    (["construct", "twomult", "--m", "2", "--mt", "1", "--n", "3"], None),
    (["certify", "--family", "twomult", "--m", "1", "--n", "5"], None),
    (["certify", "--input", "INPUT"], "general-mult-inf"),
    (["hilbert", "--input", "INPUT"], "general-mult-inf"),
    (["hilbert", "--input", "INPUT"], "general-mult-0"),
    *[(["construct", "tq", "--input", "INPUT", "--q", "2"], name) for name in LOCUS_EDITED],
    (["certify", "--input", "INPUT"], "locus-mult-true"),
    (["hilbert", "--input", "INPUT"], "locus-mult-true"),
    (["hilbert", "--input", "INPUT"], "random-light-mult-2"),
    (["certify", "--input", "INPUT"], "random-light-mult-2"),
    (["certify", "--input", "INPUT"], "tq-mults-swapped"),
    (["hilbert", "--input", "INPUT"], "tq-mults-swapped"),
    *[([cmd, "--input", "INPUT"], name) for name in
      ("general-precision-300.0", "general-precision-300.5", "general-no-lines",
       "general-line-twice") for cmd in ("certify", "hilbert")],
    *[([cmd, "--input", "INPUT"], name) for name in
      ("phi-hex-5", "phi-hex-null", "kind-5", "kind-bogus")
      for cmd in ("certify", "hilbert")],
    (["scan", "darboux", "--m", "1", "--n", "1", "--jobs", "0"], None),
    (["scan", "gorenstein", "--m", "1", "--n", "2", "--jobs", "-3"], None),
    (["scan", "gorenstein", "--m", "1", "--n", "2", "--samples", "-3"], None),
    (["certify", "--input", "INPUT"], "m-0"),
    (["hilbert", "--input", "INPUT"], "m-0"),
    (["construct", "tq", "--input", "INPUT", "--q", "2"], "m-0"),
    *[(argv + [flag, "UNWRITABLE"], None) for argv, flag in (
        (["construct", "am1n", "--m", "1", "--n", "2"], "-o"),
        (["certify", "--family", "am1n", "--m", "1", "--n", "2"], "-o"),
        (["hilbert", "--m", "1", "--n", "2"], "-o"),
        (["hilbert", "--m", "1", "--n", "2"], "--csv"),
        (["scan", "certify", "--m", "1", "--n", "2"], "-o"))],
    *[(argv, name) for name in ZERO_DENOMINATOR for argv in (
        ["certify", "--input", "INPUT"], ["hilbert", "--input", "INPUT"],
        ["construct", "tq", "--input", "INPUT", "--q", "2"])],
    *[([cmd, "--input", "INPUT"], name) for name in RECORD_EDITED
      for cmd in ("certify", "hilbert")],
    *[([cmd, "--input", "INPUT"], name) for name in ("phi-hex-2^1000000", "phi-hex-2^-1000000")
      for cmd in ("certify", "hilbert")],
]
BAD_INPUT = [pytest.param(argv, drop, id=f"argv{k}-{drop}")
             for k, (argv, drop) in enumerate(_NUMBERED)] + [
    pytest.param(argv, drop, id=_case_id(argv, drop)) for argv, drop in [
        (["certify", "--input", "INPUT"], "alpha-inf"),
        (["certify", "--input", "INPUT"], "twomult-precision-10^400"),
        (["construct", "tq", "--input", "INPUT", "--q", "2"], "random-q-10^400"),
        (["certify", "--input", "INPUT"], "twomult-n-3"),
        *[(argv, None) for argv in OPTION_TOO_LARGE],
        (["certify", "--input", "INPUT"], "am1n-n-20000"),
        (["hilbert", "--input", "INPUT"], "random-q-1000"),
        (["certify", "--input", "INPUT"], "deep-json"),
    ]]


@pytest.mark.parametrize("argv,drop", BAD_INPUT)
def test_bad_input_exit_two(tmp_path, capsys, argv, drop):
    import time

    from balines.config import build_am1n, build_two_mult, random_type_m1n, t_q_expand
    from balines.locus import solve_general_locus

    path = tmp_path / "partial.json"
    if drop in RAW_INPUT:
        path.write_text(RAW_INPUT[drop])
    elif drop in LOCUS:
        path.write_text(json.dumps(solve_general_locus(LOCUS[drop], 128).to_json_dict()))
    elif drop in LOCUS_EDITED:
        data = solve_general_locus((2, 1, 1), 128).to_json_dict()
        data["lines"][0]["mult"] = LOCUS_EDITED[drop]
        path.write_text(json.dumps(data))
    elif drop in TWOMULT_EDITED:
        data = build_two_mult(3, 1, 4, 128).to_json_dict()
        TWOMULT_EDITED[drop](data)
        path.write_text(json.dumps(data))
    elif drop in RECORD_EDITED or drop in TOO_LARGE or drop in INFLATED:
        family, key, value = {**RECORD_EDITED, **TOO_LARGE, **INFLATED}[drop]
        build = {"am1n": lambda: build_am1n(2, 3, 128),
                 "tq": lambda: t_q_expand(build_am1n(1, 3, 128), 2),
                 "twomult": lambda: build_two_mult(3, 1, 4, 128),
                 "random": lambda: random_type_m1n(2, 4, 1, 128)}[family]
        data = build().to_json_dict()
        data[key] = value
        path.write_text(json.dumps(data))
    elif drop in GROUP_EDITED:
        family, edit = GROUP_EDITED[drop]
        data = (random_type_m1n(2, 4, 1, 128) if family == "random"
                else t_q_expand(build_am1n(2, 3, 128), 2)).to_json_dict()
        edit(data)
        path.write_text(json.dumps(data))
    else:
        data = build_am1n(2, 2, 128).to_json_dict()
        data.pop(drop, None)
        if drop in FOREIGN:
            key = FOREIGN[drop]
            data[key] = build_am1n(3, 2, 128).to_json_dict()[key]
        if drop in EDITED:
            EDITED[drop](data)
        if drop in GENERAL_EDITED:
            GENERAL_EDITED[drop](data)
        path.write_text(json.dumps(data))
    paths = {"INPUT": str(path), "MISSING": str(tmp_path / "absent.json"),
             "UNWRITABLE": str(tmp_path / "absent" / "out.json")}
    start = time.perf_counter()
    assert run([paths.get(a, a) for a in argv]) == 2
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    if "UNWRITABLE" in argv:
        assert err.startswith(f"error: cannot write {paths['UNWRITABLE']}: ")
    if drop in LOCUS_EDITED:
        assert "line 0: multiplicity" in err
    if drop in ZERO_DENOMINATOR:
        assert err.startswith(f"error: {path}: ") and "zero denominator" in err
    if drop in RECORD_EDITED:
        assert f"needs an integer {RECORD_EDITED[drop][1]} >= " in err
    if drop in TOO_LARGE:
        assert err.startswith(f"error: {path}: ")
    if drop == "alpha-inf":
        assert err == f"error: {path}: line 1: alpha inf is not finite"
    if drop == "twomult-n-3":
        assert err == f"error: {path}: the two-multiplicity family needs even n >= 2"
    if argv in OPTION_TOO_LARGE:
        assert " must be <= " in err
    if drop in INFLATED or drop == "deep-json":
        assert elapsed < 1
    if drop in INFLATED:
        assert err.startswith(f"error: {path}: the record has {INFLATED[drop][1]} = ")


def test_memory_error_exits_three(monkeypatch, capsys):
    """A MemoryError from a kernel is a computation error, exit 3 with one
    error line, not a traceback."""
    import balines.cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(balines.cli, "certify_ba", exhausted)
    assert run(["certify", "--family", "am1n", "--m", "1", "--n", "2"]) == 3
    assert capsys.readouterr().err == "error: out of memory\n"


@pytest.mark.parametrize("argv", [
    ["construct", "am1n", "--m", "1", "--n", "1", "--jobs", "2"],
    ["certify", "--family", "am1n", "--m", "1", "--n", "1", "--jobs", "2"],
    ["hilbert", "--m", "1", "--n", "1", "--jobs", "2"],
    ["construct", "am1n", "--m", "1", "--n", "1", "--threshold-log2", "10"],
    ["hilbert", "--m", "1", "--n", "1", "--threshold-log2", "10"],
])
def test_removed_option_exit_two(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


# Requests of every kind the parser meets: valid ones of each subcommand,
# help and version, unknown subcommands and options, abbreviations, extra
# positionals, "--", options before the subcommand, bad and missing values.
PARSE_ARGVS = [
    ["construct", "am1n", "--m", "2", "--n", "3"],
    ["construct", "locus", "--mults=2,3,1,1", "-o", "x.json"],
    ["certify", "--family", "twomult", "--m", "2", "--mt", "1", "--n", "4", "--q", "2"],
    ["certify", "--input", "c.json", "--threshold-log2", "200", "--precision", "128"],
    ["hilbert", "--random", "--m", "3", "--n", "5", "--seed", "4", "--csv", "h.csv"],
    ["hilbert", "--m", "2", "--n", "3", "--check-closed-form", "-ox.json"],
    ["scan", "darboux", "--m", "2", "--mt", "1", "--n", "4"],
    ["scan", "certify", "--family", "tq", "--q", "1..4", "--jobs", "2"],
    [], ["-h"], ["--help"], ["--version"], ["certify", "-h"], ["scan", "--help"],
    ["bogus"], ["cert"], ["certify", "--bogus"], ["certify", "--bogus", "--m", "2"],
    ["certify", "--fam", "am1n", "--m", "2", "--n", "3"],
    ["hilbert", "--rand", "--m", "2", "--n", "2"], ["hilbert", "--c"],
    ["certify", "extra"], ["construct", "am1n", "extra", "more"],
    ["certify", "--", "--m", "2"], ["construct", "--", "am1n"],
    ["construct", "am1n", "--"], ["--seed", "1", "certify"],
    ["--version", "certify"], ["certify", "--version"], ["certify", "--vers"],
    ["construct"], ["construct", "bogus"], ["certify", "--m", "x"],
    ["certify", "--m"], ["certify", "--m", "-1"], ["scan"], ["scan", "gorenstein", "-h"],
]


def _parse_outcome(parse, argv, capsys):
    """parse(argv)'s Namespace, or its SystemExit code, with what it printed."""
    try:
        result = parse(argv)
    except SystemExit as ex:
        result = ("exit", ex.code)
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("argv", PARSE_ARGVS, ids=" ".join)
def test_main_parses_as_the_full_parser(argv, capsys):
    from balines.cli import _parse_args, build_parser

    assert (_parse_outcome(_parse_args, argv, capsys)
            == _parse_outcome(build_parser().parse_args, argv, capsys))


def test_public_names_resolve():
    import balines

    missing = [name for name in balines.__all__ if not hasattr(balines, name)]
    assert missing == []


def test_computation_error_exit_three(tmp_path):
    # two lines at 0 and 1/2 have every relative residual exactly 1, so the
    # threshold 2^0 stays inside the rounding bound at every F
    from balines.config import general_from_angles

    path = tmp_path / "two.json"
    general_from_angles([1, 1], [0, 0.5], 256).save(str(path))
    assert run(["certify", "--input", str(path), "--threshold-log2", "0"]) == 3


def test_jobs_flag(tmp_path):
    out = tmp_path / "scanj.json"
    assert run(["scan", "gorenstein", "--m", "1", "--n", "2", "--samples", "2",
                "--jobs", "2", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["all_pass"] is True


@pytest.mark.parametrize("argv, cores, workers", [
    (["scan", "darboux", "--m", "1", "--n", "1", "--jobs", "64"], 2, None),
    (["scan", "darboux", "--m", "1", "--n", "1..3", "--jobs", "64"], 2, 2),
    (["scan", "darboux", "--m", "1", "--n", "1..3", "--jobs", "64"], None, None),
    (["scan", "gorenstein", "--m", "1", "--n", "2", "--samples", "4",
      "--jobs", "3"], 8, 3),
])
def test_jobs_pool_is_capped_by_items_and_cores(monkeypatch, tmp_path, argv,
                                                cores, workers):
    # the pool forks all its workers at the first submit: no more than there
    # are items or cores, and none for a single worker
    import concurrent.futures
    import os

    pools = []

    class Recorder:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, items):
            return map(worker, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert run(argv + ["-o", str(tmp_path / "scan.json")]) == 0
    assert pools == ([] if workers is None else [workers])


def test_env_precision(monkeypatch, tmp_path):
    # one process, two calls: each reads BA_PRECISION when it runs
    out = tmp_path / "p.json"
    for bits in (128, 192):
        monkeypatch.setenv("BA_PRECISION", str(bits))
        assert run(["construct", "am1n", "--m", "1", "--n", "1",
                    "-o", str(out)]) == 0
        assert json.loads(out.read_text())["precision_bits"] == bits
    assert run(["construct", "am1n", "--m", "1", "--n", "1", "--precision",
                "64", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["precision_bits"] == 64


def test_malformed_env_precision_exit_two(monkeypatch, capsys):
    monkeypatch.setenv("BA_PRECISION", "abc")
    assert run(["construct", "am1n", "--m", "1", "--n", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: BA_PRECISION")


@pytest.mark.parametrize("bits,message", [("100000000", "<= 65536"), ("32", ">= 64")])
def test_env_precision_out_of_bounds_exit_two(monkeypatch, capsys, bits, message):
    monkeypatch.setenv("BA_PRECISION", bits)
    assert run(["construct", "am1n", "--m", "1", "--n", "1"]) == 2
    assert capsys.readouterr().err == f"error: BA_PRECISION must be {message}\n"


def _write_numeric_chart(cfg, path) -> None:
    """Save cfg with e, ehat and every finite slope removed: no exact data
    is left, so its Hilbert series takes the numeric route."""
    data = cfg.to_json_dict()
    data["e"] = data["ehat"] = None
    for line in data["lines"]:
        if line["alpha"] != "inf":
            line["alpha"] = None
    path.write_text(json.dumps(data))


def test_hilbert_numeric_refusal_exit_three(monkeypatch, tmp_path, capsys):
    from balines import quasi
    from balines.config import random_type_m1n

    path = tmp_path / "numeric.json"
    _write_numeric_chart(random_type_m1n(2, 3, 1, 128), path)
    frac = 128 + quasi.GUARD_BITS
    ill = [[1 << (frac - 30), 0], [0, 1 << (frac - 70)]]  # margin 2^40
    rank = quasi.rank_numeric
    monkeypatch.setattr(quasi, "rank_numeric",
                        lambda rows, precision: rank(ill, precision))
    assert run(["hilbert", "--input", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: rank margin")


# SHA-256 of the stdout of twelve requests, the manifest's wall_clock
# dropped, run in a directory holding pert.json (am1n (3, 3) with line 2
# moved by 1e-2), base.json (twomult (2, 1, 4)), numeric.json (random (2, 5),
# seed 1, with its exact data removed), pairs.json (the slopes 1/2, -1/2, 3,
# -3 and 5/7 with m = 2, exact data removed: r = 3 of n = 5 counted on
# numeric lines), and below.json and numeric-below.json
# (am1n (2, 3) and numeric.json with line 1 stored pi less): they hold the
# bytes of passing and failing certificates, of one whose heavy line repeats
# at four indices, of a q-expansion and of Hilbert series on the
# closed-form, exact and numeric routes fixed while the arithmetic behind
# them changes.
PINNED = {
    "certify-am1n-2-3-q2": (
        ["certify", "--family", "am1n", "--m", "2", "--n", "3", "--q", "2"], 0,
        "bd08a06c42f083471156a4870d312f681cb62ba3c73217823bf3b5920734a3ae"),
    "certify-twomult-2-1-4-q3": (
        ["certify", "--family", "twomult", "--m", "2", "--mt", "1", "--n", "4",
         "--q", "3"], 0,
        "133f7b0455cc8afabd91131dcbf0eeab5e7e270c7a2a821b01d8900c2a72765f"),
    "certify-am1n-6-4-q4": (
        ["certify", "--family", "am1n", "--m", "6", "--n", "4", "--q", "4"], 0,
        "84de04ced55fe1fdd9b82da382629cef0cb3f8bbad427c6834ac74d540d2914a"),
    "certify-line-1-below-zero": (
        ["certify", "--input", "below.json"], 0,
        "3fada6167ccddf34ad3b16a3df14aca7238d3b55aa88bf8bc84919e9350a1375"),
    "hilbert-numeric-line-1-below-zero": (
        ["hilbert", "--input", "numeric-below.json"], 0,
        "8319b4a04d6a6c60dad7b7e347174f0d5825b606fe3b09a1af857d87107c221b"),
    "certify-perturbed": (
        ["certify", "--input", "pert.json"], 1,
        "2b3d534b2e5996b0db6569ee6846753a7265614ff3237424e979d9d2a7068ea3"),
    "construct-tq-q3": (
        ["construct", "tq", "--input", "base.json", "--q", "3"], 0,
        "8ed42fb6666e6f0f71b4f19d724ab961ac0f2973984948f9d8a0401c8af417e2"),
    "hilbert-am1n-2-3-closed-form": (
        ["hilbert", "--m", "2", "--n", "3", "--check-closed-form"], 0,
        "6a7b6b685e9eb2a369567310defd6bbb5878a1e7854222a43eff2faca9c890be"),
    "hilbert-random-3-5-seed-4": (
        ["hilbert", "--random", "--m", "3", "--n", "5", "--seed", "4"], 0,
        "807edb5bba2e61796565fe5e4f1e6a54b354631436e81d2e36331abf9f627045"),
    "hilbert-twomult-2-1-4": (
        ["hilbert", "--input", "base.json"], 0,
        "4b119055447a84d39abe275c3148ee45cd112fc170bba1cabc737578f9135c10"),
    "hilbert-numeric-random-2-5": (
        ["hilbert", "--input", "numeric.json"], 0,
        "2ba111b44b97e634dbc7aa8766f536debff9c5bfda8bbe908d0197127966c077"),
    "hilbert-numeric-slope-pairs": (
        ["hilbert", "--input", "pairs.json"], 0,
        "515f0d1d1ec642172cc90be2b7636bb99dc8aaeb9469738cf0e9596f266ea2e3"),
}


def pinned_digest(argv, capsys):
    """Run argv; its exit code and the SHA-256 of its stdout without the
    manifest's wall_clock, after checking that the stdout is the indented,
    sorted JSON dump."""
    code = main(argv)
    text = capsys.readouterr().out
    payload = json.loads(text)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text
    payload.get("manifest", {}).pop("wall_clock", None)
    blob = json.dumps(payload, indent=2, sort_keys=True).encode()
    return code, hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("name", PINNED)
def test_cli_bytes_are_pinned(name, tmp_path, monkeypatch, capsys):
    from fractions import Fraction as F

    from balines.config import (build_am1n, build_two_mult, from_alphas, perturb_line,
                                random_type_m1n)

    monkeypatch.delenv("BA_PRECISION", raising=False)
    monkeypatch.chdir(tmp_path)
    perturb_line(build_am1n(3, 3, 256), 2, 1e-2).save("pert.json")
    build_two_mult(2, 1, 4, 256).save("base.json")
    _write_numeric_chart(random_type_m1n(2, 5, 1, 256), tmp_path / "numeric.json")
    _write_numeric_chart(from_alphas(2, [F(1, 2), F(-1, 2), 3, -3, F(5, 7)], 256),
                         tmp_path / "pairs.json")
    (tmp_path / "below.json").write_text(
        json.dumps(_below_zero(build_am1n(2, 3, 256).to_json_dict(), 1, 256)))
    numeric = json.loads((tmp_path / "numeric.json").read_text())
    (tmp_path / "numeric-below.json").write_text(json.dumps(_below_zero(numeric, 1, 256)))
    argv, code, digest = PINNED[name]
    assert pinned_digest(argv, capsys) == (code, digest)


def test_scan_darboux_bytes_are_pinned(monkeypatch, capsys):
    # the chain reports of every (m, mt, n) with m 1..3 and n 1..4 (24
    # items), without the manifest's wall_clock and each item's seconds
    monkeypatch.delenv("BA_PRECISION", raising=False)
    assert main(["scan", "darboux", "--m", "1..3", "--n", "1..4"]) == 0
    text = capsys.readouterr().out
    payload = json.loads(text)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text
    payload["manifest"].pop("wall_clock")
    for item in payload["items"]:
        item.pop("seconds")
    assert len(payload["items"]) == 24
    blob = json.dumps(payload, indent=2, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == \
        "5f17a2ebd42fa51e4dfb9207c8c7a0c43e9d78767ea0be0866f1bed65b4f378c"
