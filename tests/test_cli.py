import os
from pathlib import Path

import pytest

from tamperstore.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rates_single_row(capsys):
    code, out, _ = run(capsys, "rates", "--ber", "0.05")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "beta0,n_per_ell,syndrome_per_ell,recursive_per_ell"
    values = [float(v) for v in row.split(",")]
    assert abs(values[1] - 1.4014) <= 1e-3
    assert abs(values[2] - 0.4014) <= 1e-3
    assert abs(values[3] - 2.3412) <= 1e-3


def test_rates_sweep_and_out(capsys, tmp_path):
    out_file = tmp_path / "rates.csv"
    code, out, _ = run(
        capsys, "rates", "--ber", "0.0", "--ber-max", "0.1", "--steps", "5",
        "--out", str(out_file),
    )
    assert code == 0
    assert len(out_file.read_text().splitlines()) == 6


def test_params_command(capsys, tmp_path):
    out_file = tmp_path / "params.txt"
    code, out, _ = run(
        capsys, "params", "--epsilon", "0.05", "--ber", "0.05", "--ell", "4",
        "--ell0", "13", "--out", str(out_file),
    )
    assert code == 0
    assert "code_name = str:rs(52,4)*rm(1,7)" in out
    assert "r = int:3269" in out
    assert out_file.read_text() == out


@pytest.mark.parametrize(
    "name,epsilon,ber,ell",
    [("A", "0.05", "0", "4"), ("B", "0.05", "0.05", "4"), ("C", "0.01", "0.05", "3")],
)
def test_params_output_is_pinned(capsys, name, epsilon, ber, ell):
    golden = (DATA / f"params_{name}.txt").read_text()
    code, out, _ = run(
        capsys, "params", "--epsilon", epsilon, "--ber", ber, "--ell", ell, "--ell0", "13"
    )
    assert code == 0
    assert out == golden


@pytest.mark.parametrize(
    "line",
    ["beta = float:0.3", "nu = float:0.001", "eps_qp = float:0.00625", "lam = int:16",
     "r = int:1277", "r = int:0", "ell = int:3"],
)
def test_retrieve_edited_params_field_is_an_error(capsys, tmp_path, line):
    # params.txt holds the recipe's choices and what follows from them; an
    # edit that disagrees with the recomputed values is refused, not trusted
    session = _stored_session(capsys, tmp_path)
    path = session / "params.txt"
    key = line.split(" = ")[0] + " = "
    lines = path.read_text().splitlines(keepends=True)
    assert sum(old.startswith(key) for old in lines) == 1
    path.write_text("".join(line + "\n" if old.startswith(key) else old for old in lines))
    code, out, err = run(capsys, "retrieve", "--out", str(session))
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err and "omega" not in out


def test_usage_error_exit_code(capsys):
    assert main(["nope"]) == 1
    assert main(["rates"]) == 1  # missing required --ber
    assert main(["simulate", "--scenario", "bogus", "--epsilon", "1", "--ber", "0"]) == 1


def test_infeasible_params_exit_code(capsys):
    code, _, err = run(capsys, "params", "--epsilon", "0.9", "--ber", "0.05", "--ell", "4")
    assert code == 1
    assert "error" in err


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_store_retrieve_round_trip(capsys, tmp_path):
    session = tmp_path / "session"
    code, out, _ = run(
        capsys, "store", "--epsilon", "0.05", "--ber", "0.0", "--ell", "4",
        "--dist", "example1:12", "--message", "777", "--seed", "5",
        "--out", str(session),
    )
    assert code == 0
    for name in ("bundle.txt", "secrets.txt", "params.txt", "prefix_code.txt"):
        assert (session / name).exists()
    code, out, _ = run(capsys, "retrieve", "--out", str(session), "--seed", "9")
    assert code == 0
    assert "omega = 1" in out and "message = 777" in out


def test_store_message_file_and_env_default(capsys, tmp_path, monkeypatch):
    msg = tmp_path / "msg.txt"
    msg.write_text("42\n")
    session = tmp_path / "envdir"
    monkeypatch.setenv("TAMPERSTORE_OUT", str(session))
    code, out, _ = run(
        capsys, "store", "--epsilon", "0.05", "--ber", "0.0", "--ell", "4",
        "--message-file", str(msg), "--seed", "1",
    )
    assert code == 0
    assert (session / "bundle.txt").exists()
    code, out, _ = run(capsys, "retrieve", "--seed", "2")
    assert code == 0 and "message = 42" in out


def test_store_depth_is_unrecognised(capsys, tmp_path):
    code, _, err = run(
        capsys, "store", "--epsilon", "0.05", "--ber", "0.0", "--ell", "4",
        "--message", "5", "--depth", "2", "--out", str(tmp_path / "session"),
    )
    assert code == 1 and "unrecognized arguments: --depth 2" in err


def test_store_empty_message_file_is_an_error(capsys, tmp_path):
    msg = tmp_path / "empty.txt"
    msg.write_text(" \n")
    code, _, err = run(
        capsys, "store", "--epsilon", "0.05", "--ber", "0.0", "--ell", "4",
        "--message-file", str(msg), "--out", str(tmp_path / "session"),
    )
    assert code == 1
    assert err.startswith("error:") and "holds no message" in err
    assert "Traceback" not in err


def test_simulate_writes_report(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "simulate", "--scenario", "correctness", "--epsilon", "0.05",
        "--ber", "0.0", "--ell", "4", "--trials", "8", "--seed", "3",
        "--out", str(out_file),
    )
    assert code == 0
    assert "consistent" in out
    assert out_file.exists()
    body = out_file.read_text()
    assert "trial,omega,reason" in body


def test_simulate_tamper_strategy(capsys):
    code, out, _ = run(
        capsys, "simulate", "--scenario", "tamper", "--strategy", "flip-c",
        "--epsilon", "0.05", "--ber", "0.0", "--ell", "4", "--trials", "6",
        "--seed", "4",
    )
    assert code == 0
    assert "acceptance_under_attack 0/6" in out


def test_attack_support_report(capsys, tmp_path):
    out_file = tmp_path / "attack.csv"
    code, out, _ = run(capsys, "attack-support", "--scheme", "toy-bb84", "--out", str(out_file))
    assert code == 0
    assert "Pr[WIN|acc] = 0.875" in out
    assert "advantage = 0.625" in out
    assert out_file.exists()


def test_attack_support_from_file(capsys, tmp_path):
    from tamperstore.attack_lab import bb84_toy, dump_scheme

    path = tmp_path / "scheme.txt"
    dump_scheme(bb84_toy(2, 1), path)
    code, out, _ = run(capsys, "attack-support", "--scheme", str(path))
    assert code == 0 and "advantage" in out


def test_attack_support_unknown_scheme(capsys):
    code, _, err = run(capsys, "attack-support", "--scheme", "missing")
    assert code == 1


@pytest.mark.parametrize(
    "line, why",
    [
        ("dim", "wrong number of fields for 'dim'"),
        ("message 0", "wrong number of fields for 'message'"),
        ("state 0 0 1,0 0", "state entry '0' is not re,im"),
        ("state 0 0 1,0,0 0,1", "state entry '1,0,0' is not re,im"),
    ],
    ids=["dim", "message", "state-short", "state-long"],
)
def test_attack_support_malformed_scheme_line(capsys, tmp_path, line, why):
    path = tmp_path / "scheme.txt"
    path.write_text(f"name bad\nkey 0\n{line}\n")
    code, _, err = run(capsys, "attack-support", "--scheme", str(path))
    assert code == 1
    assert err.startswith("error:") and "line 3" in err and why in err
    assert "Traceback" not in err


def test_retrieve_missing_bundle_key_is_an_error(capsys, tmp_path):
    session = tmp_path / "session"
    code, _, _ = run(
        capsys, "store", "--epsilon", "0.05", "--ber", "0.0", "--ell", "4",
        "--message", "777", "--seed", "5", "--out", str(session),
    )
    assert code == 0
    bundle = session / "bundle.txt"
    lines = bundle.read_text().splitlines(keepends=True)
    bundle.write_text("".join(line for line in lines if not line.startswith("u = ")))
    code, out, err = run(capsys, "retrieve", "--out", str(session))
    assert code == 1
    assert err.startswith("error:") and "'u'" in err
    assert "omega" not in out


@pytest.mark.parametrize("mac_key", ["bits:7:15", "bits:0:"])
def test_retrieve_malformed_mac_key_is_an_error(capsys, tmp_path, mac_key):
    session = tmp_path / "session"
    code, _, _ = run(
        capsys, "store", "--epsilon", "0.05", "--ber", "0.0", "--ell", "4",
        "--message", "777", "--seed", "5", "--out", str(session),
    )
    assert code == 0
    secrets = session / "secrets.txt"
    lines = secrets.read_text().splitlines(keepends=True)
    assert sum(line.startswith("mac_key = ") for line in lines) == 1
    secrets.write_text(
        "".join(f"mac_key = {mac_key}\n" if line.startswith("mac_key = ") else line for line in lines)
    )
    code, out, err = run(capsys, "retrieve", "--out", str(session))
    assert code == 1
    assert err.startswith("error:")
    assert "omega" not in out


@pytest.mark.parametrize(
    "name,line",
    [
        ("params.txt", "r = str:1276"),
        ("params.txt", "epsilon = str:0.05"),
        ("params.txt", "code_name = int:5"),
        ("secrets.txt", "v = int:5"),
        ("secrets.txt", "m_nabla = int:5"),
        ("secrets.txt", "s = int:5"),
        ("secrets.txt", "r = bits:3:5"),
        ("secrets.txt", "t = int:5"),
        ("secrets.txt", "mac_key = int:5"),
        ("bundle.txt", "u = int:5"),
    ],
)
def test_retrieve_mistyped_field_is_an_error(capsys, tmp_path, name, line):
    session = tmp_path / "session"
    code, _, _ = run(
        capsys, "store", "--epsilon", "0.05", "--ber", "0.0", "--ell", "4",
        "--message", "777", "--seed", "5", "--out", str(session),
    )
    assert code == 0
    path = session / name
    key = line.split(" = ")[0] + " = "
    lines = path.read_text().splitlines(keepends=True)
    if (name, key) == ("secrets.txt", "r = "):
        lines.append("r = int:1276\n")  # only secrets files written before r was derived hold it
    assert sum(old.startswith(key) for old in lines) == 1
    path.write_text("".join(line + "\n" if old.startswith(key) else old for old in lines))
    code, out, err = run(capsys, "retrieve", "--out", str(session))
    assert code == 1
    assert err.startswith("error:") and key.split()[0] in err
    assert "Traceback" not in err and "omega" not in out


def test_store_message_outside_prefix_code_is_an_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "store", "--epsilon", "0.05", "--ber", "0.0", "--ell", "4",
        "--message", "5000", "--dist", "example1:12", "--out", str(tmp_path),
    )
    assert code == 1
    assert err.startswith("error:") and "5000" in err


def _stored_session(capsys, tmp_path):
    session = tmp_path / "session"
    code, _, _ = run(
        capsys, "store", "--epsilon", "0.05", "--ber", "0.0", "--ell", "4",
        "--message", "777", "--seed", "5", "--out", str(session),
    )
    assert code == 0
    return session


def test_retrieve_swapped_params_file_is_an_error(capsys, tmp_path):
    session = _stored_session(capsys, tmp_path)
    (session / "params.txt").write_text((session / "secrets.txt").read_text())
    code, out, err = run(capsys, "retrieve", "--out", str(session))
    assert code == 1
    assert err.startswith("error:") and "expected a params file, got 'secrets'" in err
    assert "Traceback" not in err and "omega" not in out


def test_retrieve_duplicate_prefix_code_id_is_an_error(capsys, tmp_path):
    # even a repeated line is refused: a reader that keeps one of two
    # entries for an id guesses which one was meant
    session = _stored_session(capsys, tmp_path)
    path = session / "prefix_code.txt"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines + lines[-1:]))
    code, out, err = run(capsys, "retrieve", "--out", str(session))
    assert code == 1
    assert err.startswith("error:") and f"line {len(lines) + 1}: id" in err
    assert "appears twice" in err
    assert "Traceback" not in err and "omega" not in out


def test_store_dist_file_with_three_fields_is_an_error(capsys, tmp_path):
    dist = tmp_path / "dist.txt"
    dist.write_text("0 0.5\n1 0.25 0.25\n2 0.25\n")
    code, _, err = run(
        capsys, "store", "--epsilon", "0.05", "--ber", "0.0", "--ell", "1",
        "--dist-file", str(dist), "--message", "0", "--out", str(tmp_path / "session"),
    )
    assert code == 1
    assert err.startswith("error:") and f"{dist}, line 2: expected 'id value'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "session").exists()


def test_selftest_fails_when_the_decoder_does_not_correct(capsys, monkeypatch):
    from tamperstore.bits import Bits
    from tamperstore.linear_code import RmRsCode

    monkeypatch.setattr(RmRsCode, "syn_dec", lambda self, s: Bits.zeros(self.n))
    code, out, _ = run(capsys, "selftest")
    assert code == 2
    assert "FAIL menu-code-decode" in out
    assert out.count("PASS") == 5


def test_runtime_imports_leave_out_scipy():
    import subprocess
    import sys
    from pathlib import Path

    import tamperstore

    env = dict(os.environ, PYTHONPATH=str(Path(tamperstore.__file__).parents[1]))
    probe = (
        "import sys, tamperstore, tamperstore.experiments, tamperstore.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
