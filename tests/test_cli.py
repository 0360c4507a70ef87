"""Command-line interface: subcommands, exit codes, byte stability."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from lelong.cli import main
from lelong.rationals import parse_rational

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

PHI_STAR = str(DATA / "phi_star.json")
U_Z1 = str(DATA / "u_z1.json")
J_Z1Z2 = str(DATA / "j_z1z2.json")
SQUARE_CROSS = str(DATA / "square_cross.json")
DIR_1_2 = str(DATA / "dir_1_2.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_mass(self, capsys):
        code, out, _ = run(capsys, "mass", PHI_STAR)
        assert code == 0
        assert out == '{"tau": "6"}\n'

    def test_dir_lelong(self, capsys):
        code, out, _ = run(capsys, "dir-lelong", PHI_STAR, "--a", "1,1")
        assert code == 0
        assert out == '{"nu": "2"}\n'

    def test_gamma(self, capsys):
        code, out, _ = run(capsys, "gamma", PHI_STAR)
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "atoms": [
                {"t": ["-1/3", "-2/3"], "mass": "3"},
                {"t": ["-2/3", "-1/3"], "mass": "3"},
            ],
            "total": "6",
        }

    def test_gamma_total_matches_mass(self, capsys):
        _, gamma_out, _ = run(capsys, "gamma", PHI_STAR)
        _, mass_out, _ = run(capsys, "mass", PHI_STAR)
        assert json.loads(gamma_out)["total"] == json.loads(mass_out)["tau"]

    def test_lelong(self, capsys):
        code, out, _ = run(capsys, "lelong", U_Z1, PHI_STAR)
        assert code == 0
        assert out == '{"nu": "3"}\n'

    def test_lelong_normalized(self, capsys):
        code, out, _ = run(capsys, "lelong", U_Z1, PHI_STAR, "--normalized")
        assert code == 0
        assert out == '{"nu_tilde": "1/2"}\n'

    def test_type(self, capsys):
        code, out, _ = run(capsys, "type", U_Z1, PHI_STAR)
        assert code == 0
        assert out == '{"sigma": "1/3"}\n'

    def test_extremal(self, capsys):
        code, out, _ = run(capsys, "extremal", PHI_STAR)
        assert code == 0
        assert json.loads(out) == {"a": ["1/2", "1/2"], "flat": False}

    def test_flat_with_witness(self, capsys):
        code, out, _ = run(capsys, "flat", PHI_STAR)
        assert code == 0
        payload = json.loads(out)
        assert payload["flat"] is False
        assert "witness" in payload

    def test_flat_true(self, capsys):
        code, out, _ = run(capsys, "flat", DIR_1_2)
        assert code == 0
        assert json.loads(out) == {"flat": True}

    def test_mixed(self, capsys):
        code, out, _ = run(capsys, "mixed", SQUARE_CROSS, PHI_STAR)
        assert code == 0
        assert out == '{"e": "4"}\n'

    def test_mixed_with_oracle(self, capsys):
        code, out, _ = run(capsys, "mixed", SQUARE_CROSS, PHI_STAR, "--oracle", "polarization")
        assert code == 0
        assert json.loads(out) == {"e": "4", "oracle": "4"}

    def test_mixed_accepts_sampling_flags(self, capsys):
        code, out, _ = run(
            capsys, "mixed", SQUARE_CROSS, PHI_STAR,
            "--oracle", "polarization", "--seed", "7", "--samples", "5000",
        )
        assert code == 0
        assert json.loads(out) == {"e": "4", "oracle": "4"}

    def test_contain(self, capsys):
        code, out, _ = run(capsys, "contain", J_Z1Z2, PHI_STAR, "-p", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["hypothesis"] is True
        assert payload["p_k"] == [2, 2]
        assert payload["all_axis_bound"] is True
        assert payload["all_closure"] is True
        assert payload["all_literal"] is False

    def test_loj(self, capsys):
        code, out, _ = run(capsys, "loj", PHI_STAR)
        assert code == 0
        assert out == '{"L": "3"}\n'

    def test_plot(self, capsys, tmp_path):
        target = tmp_path / "diagram.svg"
        code, out, _ = run(capsys, "plot", PHI_STAR, "-o", str(target))
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("<svg")
        assert "</svg>" in text


class TestErrors:
    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "mass", str(bad))
        assert code == 2
        assert "malformed JSON" in err

    def test_non_utf8_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"n": 2}')
        code, _, err = run(capsys, "mass", str(bad))
        assert code == 2
        assert "not UTF-8" in err
        assert err.count("\n") == 1

    def test_deep_nesting(self, capsys, tmp_path):
        depth = 100_000
        deep = tmp_path / "deep.json"
        deep.write_text('{"n": 2, "generators": ' + "[" * depth + "]" * depth + "}")
        code, _, err = run(capsys, "mass", str(deep))
        assert code == 2
        assert "malformed JSON" in err
        assert err.count("\n") == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "mass", "/nonexistent/x.json")
        assert code == 2
        assert err

    def test_dimension_cap(self, capsys, tmp_path):
        doc = {"n": 7, "generators": [[1, 0, 0, 0, 0, 0, 0]] * 7}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "mass", str(path))
        assert code == 2

    def test_not_primary_exit_three(self, capsys, tmp_path):
        doc = {"n": 2, "generators": [[2, 0], [1, 1]]}
        path = tmp_path / "np.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "mass", str(path))
        assert code == 3
        assert "pure power" in err

    def test_plot_needs_dimension_two(self, capsys, tmp_path):
        doc = {"n": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
        path = tmp_path / "three.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "plot", str(path), "-o", str(tmp_path / "x.svg"))
        assert code == 2

    def test_contain_p_zero(self, capsys):
        code, _, err = run(capsys, "contain", J_Z1Z2, PHI_STAR, "-p", "0")
        assert code == 2
        assert err == "p must be a positive integer\n"

    def test_float_generator_rejected(self, capsys, tmp_path):
        doc = {"n": 2, "generators": [[1.5, 0], [0, 1]]}
        path = tmp_path / "float.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "mass", str(path))
        assert code == 2


class TestStability:
    def test_byte_stable(self, capsys):
        _, first, _ = run(capsys, "gamma", PHI_STAR)
        _, second, _ = run(capsys, "gamma", PHI_STAR)
        assert first == second

    def test_rationals_round_trip(self, capsys):
        _, out, _ = run(capsys, "gamma", PHI_STAR)
        payload = json.loads(out)
        for atom in payload["atoms"]:
            for coord in atom["t"]:
                q = parse_rational(coord)
                assert str(q.numerator) == coord.split("/")[0]
            assert parse_rational(atom["mass"]) == Fraction(3)
        assert parse_rational(payload["total"]) == 6


class TestGoldenSubprocess:
    def _invoke(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "lelong.cli", *argv],
            capture_output=True,
        )

    def test_lelong_golden(self):
        proc = self._invoke("lelong", U_Z1, PHI_STAR)
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "lelong_u_z1_phi_star.stdout").read_bytes()

    def test_mass_golden(self):
        proc = self._invoke("mass", PHI_STAR)
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "mass_phi_star.stdout").read_bytes()

    def test_contain_p_zero_golden(self):
        proc = self._invoke("contain", J_Z1Z2, PHI_STAR, "-p", "0")
        assert proc.returncode == 2
        assert proc.stderr == (GOLDEN / "contain_p0.stderr").read_bytes()
