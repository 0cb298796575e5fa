import os
import re
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import reference
from tamperstore.cli import build_parser, main
from tamperstore.linear_code import default_registry
from tamperstore.params import ProtocolParams
from tamperstore.protocol import ClientSecrets, ServerBundle

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


@pytest.mark.parametrize(
    "argv",
    [
        ["--ber", "0.7"],
        ["--ber", "0.5"],
        ["--ber", "-0.1"],
        ["--ber", "0.3", "--ber-max", "0.6", "--steps", "4"],
        ["--ber", "-0.1", "--ber-max", "0.1", "--steps", "3"],
    ],
    ids=["0.7", "0.5", "negative", "sweep-past-half", "sweep-from-negative"],
)
def test_rates_refuses_ber_outside_half_interval(capsys, tmp_path, argv):
    out_file = tmp_path / "rates.csv"
    code, out, err = run(capsys, "rates", *argv, "--out", str(out_file))
    assert code == 1
    assert err.startswith("error:") and "outside [0, 1/2)" in err
    assert "Traceback" not in err
    assert out == "" and not out_file.exists()


@pytest.mark.parametrize("steps", ["1", "0"])
def test_rates_refuses_a_sweep_of_fewer_than_two_points(capsys, tmp_path, steps):
    # one point would drop --ber-max and none would print the header alone
    out_file = tmp_path / "rates.csv"
    code, out, err = run(
        capsys, "rates", "--ber", "0.05", "--ber-max", "0.1", "--steps", steps,
        "--out", str(out_file),
    )
    assert code == 1
    assert err.startswith("error:") and "--steps" in err and err.count("\n") == 1
    assert out == "" and not out_file.exists()


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


def test_store_ignores_env_out(capsys, tmp_path, monkeypatch):
    session = tmp_path / "session"
    ignored = tmp_path / "envdir"
    monkeypatch.setenv("TAMPERSTORE_OUT", str(ignored))
    code, out, _ = run(
        capsys, "store", "--epsilon", "0.05", "--ber", "0.0", "--ell", "4",
        "--message", "42", "--seed", "1", "--out", str(session),
    )
    assert code == 0
    assert (session / "bundle.txt").exists()
    code, out, _ = run(capsys, "retrieve", "--seed", "2", "--out", str(session))
    assert code == 0 and "message = 42" in out
    assert not ignored.exists()  # only --out names the session directory


def test_store_depth_is_unrecognised(capsys, tmp_path):
    code, _, err = run(
        capsys, "store", "--epsilon", "0.05", "--ber", "0.0", "--ell", "4",
        "--message", "5", "--depth", "2", "--out", str(tmp_path / "session"),
    )
    assert code == 1 and "unrecognized arguments: --depth 2" in err


def test_store_takes_the_message_from_message_only(capsys, tmp_path):
    # a message file was read by guessing (its first word, any int base);
    # --message is the one way in, and it is required
    for extra in ([], ["--message-file", str(tmp_path / "msg.txt")]):
        code, _, err = run(
            capsys, "store", "--epsilon", "0.05", "--ber", "0.0", "--ell", "4",
            *extra, "--out", str(tmp_path / "session"),
        )
        assert code == 1 and err.startswith("usage:") and "Traceback" not in err
        assert "--message" in err.splitlines()[-1]
    assert not (tmp_path / "session").exists()


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


@pytest.mark.parametrize(
    "command",
    [["simulate", "--scenario", "correctness", "--trials", "2"], ["store", "--message", "0"]],
    ids=["simulate", "store"],
)
def test_example1_of_zero_bits_is_an_error(capsys, tmp_path, command):
    code, out, err = run(
        capsys, *command, "--epsilon", "0.05", "--ber", "0.0", "--ell", "4",
        "--dist", "example1:0", "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert err.startswith("error:") and "L >= 1" in err
    assert "Traceback" not in err and out == ""
    assert not (tmp_path / "out").exists()


def test_attack_support_report(capsys, tmp_path):
    out_file = tmp_path / "attack.csv"
    code, out, _ = run(capsys, "attack-support", "--scheme", "toy-bb84", "--out", str(out_file))
    assert code == 0
    assert "Pr[WIN|acc] = 0.875" in out
    assert "advantage = 0.625" in out
    assert out_file.exists()


def test_attack_support_from_file(capsys, tmp_path):
    from tamperstore.attack_lab import bb84_toy

    path = tmp_path / "scheme.txt"
    bb84_toy(2, 1).dump(path)
    code, out, _ = run(capsys, "attack-support", "--scheme", str(path))
    assert code == 0 and "advantage" in out


def test_attack_support_unknown_scheme(capsys):
    code, _, err = run(capsys, "attack-support", "--scheme", "missing")
    assert code == 1
    assert err == "error: unknown scheme 'missing'\n"


@pytest.mark.parametrize(
    "lines, why",
    [
        ("dim", "line 3 ('dim'): wrong number of fields for 'dim'"),
        ("message 0", "line 3 ('message 0'): wrong number of fields for 'message'"),
        ("state 0 0 1,0 0", "line 3 ('state 0 0 1,0 0'): state entry '0' is not re,im"),
        ("state 0 0 1,0,0 0,1",
         "line 3 ('state 0 0 1,0,0 0,1'): state entry '1,0,0' is not re,im"),
        ("key 0", "line 3 ('key 0'): repeats an earlier declaration"),
        ("message 0 1\nmessage 0 1", "line 4 ('message 0 1'): repeats an earlier declaration"),
        ("message 0 1\nstate 0 0 1,0\nstate 0 0 0,1",
         "line 5 ('state 0 0 0,1'): repeats an earlier declaration"),
        ("message 0 1\nstate 5 0 1,0",
         "line 4 ('state 5 0 1,0'): message 5 or key 0 is not declared"),
        ("message 0 1\nstate 0 3 1,0",
         "line 4 ('state 0 3 1,0'): message 0 or key 3 is not declared"),
        ("dim 2\ndim 2", "line 4 ('dim 2'): dim is already fixed"),
        ("message 0 1\nstate 0 0 1,0 0,0\nmessage 1 0\nstate 1 0 1,0",
         "line 6 ('state 1 0 1,0'): state vector does not match dim"),
        ("message 0 0.5\nmessage 1 0.5\nstate 0 0 1,0 0,0", "no state for message 1, key 0"),
        ("message 0 1.5\nmessage 1 -0.5\nstate 0 0 1,0 0,0\nstate 1 0 0,0 1,0",
         "message prior must be nonnegative and sum to 1"),
        ("message 0 1\nstate 0 0 0,0 0,0", "every state vector must be finite and nonzero"),
    ],
    ids=[
        "dim", "message", "state-short", "state-long", "key-twice", "message-twice",
        "state-twice", "state-undeclared-message", "state-undeclared-key", "dim-twice",
        "state-ragged", "state-missing", "prior-negative", "state-zero",
    ],
)
def test_attack_support_malformed_scheme_line(capsys, tmp_path, lines, why):
    path = tmp_path / "scheme.txt"
    path.write_text(f"name bad\nkey 0\n{lines}\n")
    code, out, err = run(capsys, "attack-support", "--scheme", str(path))
    assert code == 1
    assert err.startswith("error:") and why in err
    assert "Traceback" not in err and "advantage" not in out


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
        lines.append("r = int:1276\n")  # older secrets files held r; it is refused
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
    assert err == "error: message 5000 has no codeword in the prefix code\n"


def test_refused_store_leaves_no_session_behind(capsys, tmp_path):
    session = tmp_path / "d"
    code, out, err = run(
        capsys, "store", "--epsilon", "0.05", "--ber", "0", "--ell", "4",
        "--message", "5000", "--out", str(session),
    )
    assert code == 1
    assert err == "error: message 5000 has no codeword in the prefix code\n"
    assert out == "" and not session.exists()


def test_retrieve_from_a_missing_directory_creates_nothing(capsys, tmp_path):
    session = tmp_path / "typo" / "dir"
    code, out, err = run(capsys, "retrieve", "--out", str(session))
    assert code == 1
    assert err.startswith("error:") and "params.txt" in err
    assert err.count("\n") == 1 and "Traceback" not in err and "omega" not in out
    assert not (tmp_path / "typo").exists()


def _stored_session(capsys, tmp_path, dist="example1:12"):
    session = tmp_path / "session"
    code, _, _ = run(
        capsys, "store", "--epsilon", "0.05", "--ber", "0.0", "--ell", "4", "--dist", dist,
        "--message", "777", "--seed", "5", "--out", str(session),
    )
    assert code == 0
    return session


# one key per record that its writer never writes (an unknown one and the
# ones older files held) or that is missing: "-" deletes the key
@pytest.mark.parametrize(
    "name,line",
    [
        ("params.txt", "zz = int:1"),
        ("params.txt", "d = int:2560"),
        ("params.txt", "-epsilon"),
        ("bundle.txt", "zz = int:1"),
        ("bundle.txt", "w_modulus = bits:14:2720"),
        ("bundle.txt", "register_note = str:simulation checkpoint, not physically transferable"),
        ("bundle.txt", "-u"),
        ("secrets.txt", "zz = int:1"),
        ("secrets.txt", "r = int:1276"),
        ("secrets.txt", "code_name = str:rs(20,4)*rm(1,7)"),
        ("secrets.txt", "prefix_code_name = str:custom"),
        ("secrets.txt", "-s"),
    ],
)
def test_retrieve_refuses_a_foreign_or_missing_key(capsys, tmp_path, name, line):
    session = _stored_session(capsys, tmp_path)
    path = session / name
    lines = path.read_text().splitlines(keepends=True)
    if line.startswith("-"):
        key = line[1:]
        kept = [old for old in lines if not old.startswith(f"{key} = ")]
        assert len(kept) == len(lines) - 1
        path.write_text("".join(kept))
    else:
        key = line.split(" = ")[0]
        assert not any(old.startswith(f"{key} = ") for old in lines)
        path.write_text("".join(lines) + line + "\n")
    code, out, err = run(capsys, "retrieve", "--out", str(session))
    assert code == 1
    assert err.startswith(f"error: {path}: ") and f"'{key}'" in err
    assert err.count("\n") == 1 and "Traceback" not in err and "omega" not in out


def test_retrieve_params_code_off_the_menu_is_one_error_line(capsys, tmp_path):
    session = _stored_session(capsys, tmp_path)
    params = session / "params.txt"
    text = params.read_text()
    assert "code_name = str:rs(20,4)*rm(1,7)\n" in text
    params.write_text(text.replace("rs(20,4)*rm(1,7)", "rs(20,7)*rm(1,7)"))
    code, out, err = run(capsys, "retrieve", "--out", str(session))
    assert code == 1
    assert err.startswith(f"error: {params}: ") and "code_name" in err
    assert err.count("\n") == 1 and "Traceback" not in err and "omega" not in out


def test_retrieve_swapped_params_file_is_an_error(capsys, tmp_path):
    session = _stored_session(capsys, tmp_path)
    (session / "params.txt").write_text((session / "secrets.txt").read_text())
    code, out, err = run(capsys, "retrieve", "--out", str(session))
    assert code == 1
    assert err.startswith("error:") and "expected a params file, got 'secrets'" in err
    assert "Traceback" not in err and "omega" not in out


def test_retrieve_secrets_that_do_not_fit_params_name_both_files(capsys, tmp_path):
    session = _stored_session(capsys, tmp_path)
    path = session / "secrets.txt"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join("t = bits:9:ff01\n" if line.startswith("t = ") else line for line in lines))
    code, out, err = run(capsys, "retrieve", "--out", str(session))
    assert code == 1
    assert err == (
        f"error: {path} does not fit {session / 'params.txt'}: "
        "secrets field t length is 9; params want 3836\n"
    )
    assert "omega" not in out


def test_retrieve_prefix_code_that_does_not_fit_params_names_both_files(capsys, tmp_path):
    session = _stored_session(capsys, tmp_path)
    path = session / "prefix_code.txt"
    path.write_text("0 0\n1 1\n")
    code, out, err = run(capsys, "retrieve", "--out", str(session))
    assert code == 1
    assert err == (
        f"error: {path} does not fit {session / 'params.txt'}: "
        "prefix code pads to 1, params.ell0 = 13\n"
    )
    assert "omega" not in out


def test_retrieve_duplicate_prefix_code_id_is_an_error(capsys, tmp_path):
    # even a repeated line is refused: a reader that keeps one of two
    # entries for an id guesses which one was meant; a Huffman session
    # writes its code as a table
    session = _stored_session(capsys, tmp_path, "uniform:1024")
    path = session / "prefix_code.txt"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines + lines[-1:]))
    code, out, err = run(capsys, "retrieve", "--out", str(session))
    assert code == 1
    assert err.startswith("error:") and f"line {len(lines) + 1}: id" in err
    assert "appears twice" in err
    assert "Traceback" not in err and "omega" not in out


def test_retrieve_prefix_code_with_duplicate_codewords_names_the_file(capsys, tmp_path):
    session = _stored_session(capsys, tmp_path, "uniform:1024")
    path = session / "prefix_code.txt"
    lines = path.read_text().splitlines()
    first_word = lines[0].split()[1]
    ident = lines[1].split()[0]
    lines[1] = f"{ident} {first_word}"  # a second message with the first one's codeword
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "retrieve", "--out", str(session))
    assert code == 1
    assert err == f"error: {path}: duplicate codewords\n"
    assert "omega" not in out


def test_example1_session_keeps_its_code_as_one_record(capsys, tmp_path):
    session = _stored_session(capsys, tmp_path)
    assert (session / "prefix_code.txt").read_bytes() == (
        b"# tamperstore prefix_code v1\nsource = str:example1:12\n"
    )


@pytest.mark.parametrize(
    "source,why",
    [
        ("example1:11", "does not fit"),  # another code: it pads to 12 bits
        ("example1:+12", "'+12' is not a canonical decimal integer"),
        ("bits:12", "unknown prefix code source 'bits:12'"),
        ("uniform:8192", "unknown prefix code source 'uniform:8192'"),  # only a closed form
    ],
    ids=["other-length", "plus-sign", "unknown-kind", "table-kind"],
)
def test_retrieve_refuses_an_edited_prefix_code_record_by_name(capsys, tmp_path, source, why):
    session = _stored_session(capsys, tmp_path)
    path = session / "prefix_code.txt"
    path.write_text(path.read_text().replace("example1:12", source))
    code, out, err = run(capsys, "retrieve", "--out", str(session))
    assert code == 1
    assert err.startswith(f"error: {path}") and why in err
    assert err.count("\n") == 1 and "Traceback" not in err and out == ""


def test_retrieve_reads_an_example1_code_written_as_a_table(capsys, tmp_path):
    # the table an example1:12 session held before its code became a record
    session = _stored_session(capsys, tmp_path)
    table = reference.example1_table(12)
    (session / "prefix_code.txt").write_text("".join(f"{m} {table[m].to_01()}\n" for m in sorted(table)))
    code, out, err = run(capsys, "retrieve", "--out", str(session))
    assert (code, err) == (0, "")
    assert out == "omega = 1, abort_reason = none, message = 777\n"


@pytest.mark.parametrize(
    "spec", ["example1:+12", "example1: 12", "example1:1_2", "example1:012", "uniform:+8", "uniform:0_8"]
)
def test_store_refuses_a_dist_size_not_in_canonical_decimal(capsys, tmp_path, spec):
    code, out, err = run(
        capsys, "store", "--epsilon", "0.05", "--ber", "0.0", "--ell", "1",
        "--dist", spec, "--message", "0", "--out", str(tmp_path / "session"),
    )
    assert code == 1
    assert err == f"error: {spec.partition(':')[2]!r} is not a canonical decimal integer\n"
    assert out == "" and not (tmp_path / "session").exists()


def test_store_dist_file_with_a_noncanonical_id_is_an_error(capsys, tmp_path):
    # "1_0" once read as id 10, so message 10 was stored
    dist = tmp_path / "dist.txt"
    dist.write_text("0 0.5\n1_0 0.5\n")
    code, out, err = run(
        capsys, "store", "--epsilon", "0.05", "--ber", "0.0", "--ell", "1",
        "--dist", f"file:{dist}", "--message", "10", "--out", str(tmp_path / "session"),
    )
    assert code == 1
    assert err == f"error: {dist}, line 2: '1_0' is not a canonical decimal integer\n"
    assert out == "" and not (tmp_path / "session").exists()


def test_store_dist_file_with_three_fields_is_an_error(capsys, tmp_path):
    dist = tmp_path / "dist.txt"
    dist.write_text("0 0.5\n1 0.25 0.25\n2 0.25\n")
    code, _, err = run(
        capsys, "store", "--epsilon", "0.05", "--ber", "0.0", "--ell", "1",
        "--dist", f"file:{dist}", "--message", "0", "--out", str(tmp_path / "session"),
    )
    assert code == 1
    assert err.startswith("error:") and f"{dist}, line 2: expected 'id value'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "session").exists()


@pytest.mark.parametrize("ident", ["99999999999999999999", str(1 << 63), str(-(1 << 63) - 1)])
def test_store_dist_file_with_an_id_outside_int64_is_an_error(capsys, tmp_path, ident):
    # such an id once escaped as an OverflowError traceback
    dist = tmp_path / "big.txt"
    dist.write_text(f"0 0.5\n{ident} 0.5\n")
    code, out, err = run(
        capsys, "store", "--epsilon", "0.05", "--ber", "0.0", "--ell", "1",
        "--dist", f"file:{dist}", "--message", "0", "--out", str(tmp_path / "session"),
    )
    assert code == 1
    assert err == f"error: {dist}, line 2: id {ident} is outside int64\n"
    assert out == "" and not (tmp_path / "session").exists()


def test_store_dist_file_with_the_int64_extremes_stores(capsys, tmp_path):
    dist = tmp_path / "dist.txt"
    dist.write_text(f"{-(1 << 63)} 0.5\n{(1 << 63) - 1} 0.5\n")
    code, _, err = run(
        capsys, "store", "--epsilon", "0.05", "--ber", "0.0", "--ell", "1",
        "--dist", f"file:{dist}", "--message", str((1 << 63) - 1), "--out", str(tmp_path / "s"),
    )
    assert (code, err) == (0, "")


def test_selftest_fails_when_the_decoder_does_not_correct(capsys, monkeypatch):
    import numpy as np

    from tamperstore.linear_code import RmRsCode

    monkeypatch.setattr(RmRsCode, "syn_dec", lambda self, s, received: np.zeros(self.n, np.uint8))
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


def test_session_commands_leave_out_the_attack_lab_and_the_harness(tmp_path):
    # the package root and a store -> retrieve through the CLI load the
    # session layers only; simulate, attack-support and selftest import the
    # rest when they run
    import subprocess
    import sys
    from pathlib import Path

    import tamperstore

    env = dict(os.environ, PYTHONPATH=str(Path(tamperstore.__file__).parents[1]))
    probe = (
        "import sys\n"
        "names = ('protocol', 'attack_lab', 'experiments', 'cli')\n"
        "loaded = lambda: [n for n in names if 'tamperstore.' + n in sys.modules]\n"
        "import tamperstore\n"
        "print(loaded())\n"
        "from tamperstore import cli\n"
        "session = sys.argv[1]\n"
        "assert cli.main(['store', '--epsilon', '0.05', '--ber', '0', '--ell', '4',\n"
        "                 '--message', '777', '--out', session]) == 0\n"
        "assert cli.main(['retrieve', '--out', session]) == 0\n"
        "print(loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "session")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "['protocol']"
    assert "omega = 1" in lines[-2] and "message = 777" in lines[-2]
    assert lines[-1] == "['protocol', 'cli']"


def test_retrieve_bundle_with_a_bad_hex_digit_is_one_error_line(capsys, tmp_path):
    session = _stored_session(capsys, tmp_path)
    bundle = session / "bundle.txt"
    lines = bundle.read_text().splitlines(keepends=True)
    number = next(i for i, line in enumerate(lines, 1) if line.startswith("u = "))
    lines[number - 1] = lines[number - 1][:-2] + "g\n"
    bundle.write_text("".join(lines))
    code, out, err = run(capsys, "retrieve", "--out", str(session))
    assert code == 1
    assert err.startswith(f"error: {bundle}, line {number}, key 'u': ")
    assert err.count("\n") == 1 and "Traceback" not in err and "omega" not in out


# ---------------------------------------------------------------------------
# fuzz: one stored session, one of its four files edited, run through retrieve
# ---------------------------------------------------------------------------

SESSION_FILES = ("bundle.txt", "params.txt", "prefix_code.txt", "secrets.txt")
TAGS = ("int", "float", "str", "bits", "bytes")
FUZZ_EDITS = 24  # per file


def _split_value(line: str) -> tuple[str, str]:
    """(key and separator, value) of a record line or a table line."""
    head, sep, value = line.partition(" = ") if " = " in line else line.partition(" ")
    return head + sep, value


def _fuzz_edit(text: str, pool: list[str], rng) -> str:
    """Delete, duplicate or insert a line, truncate the file, swap two
    values, or rewrite one value's type tag, bit length, one character or
    one number."""
    lines = text.splitlines(keepends=True)
    i, j = (int(k) for k in rng.integers(len(lines), size=2))
    line = lines[i]
    kinds = ["delete", "duplicate", "insert", "truncate", "swap", "char"]
    if re.search(r"\d", line):
        kinds.append("number")
    if re.search(r"= \w+:", line):
        kinds.append("tag")
    if "bits:" in line:
        kinds.append("length")
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "truncate":
        return text[: int(rng.integers(len(text)))]
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, line)
    elif kind == "insert":
        lines.insert(i, pool[int(rng.integers(len(pool)))])
    elif kind == "swap":
        (key_i, value_i), (key_j, value_j) = _split_value(line), _split_value(lines[j])
        lines[i], lines[j] = key_i + value_j, key_j + value_i
    elif kind == "char":
        k = int(rng.integers(len(line)))
        lines[i] = line[:k] + "0123456789abcdefgx:= -."[int(rng.integers(23))] + line[k + 1 :]
    elif kind == "number":
        runs = list(re.finditer(r"\d+", line))
        run = runs[int(rng.integers(len(runs)))]
        number = str(int(rng.integers(2 * int(run.group()) + 2)))
        lines[i] = line[: run.start()] + number + line[run.end() :]
    elif kind == "tag":
        lines[i] = re.sub(r"= \w+:", f"= {TAGS[int(rng.integers(len(TAGS)))]}:", line, count=1)
    else:
        length = re.search(r"bits:(\d+)", line)
        number = str(int(rng.integers(2 * int(length.group(1)) + 2)))
        lines[i] = line[: length.start(1)] + number + line[length.end(1) :]
    return "".join(lines)


# outcome counts of FUZZ_EDITS edits per file; only bundle.txt is held by
# the server, and the other three are the client's own files, so a wrong
# message from one of them (an edited key) is outside the threat model.
# prefix_code.txt is the one-line example1:12 record: an edit of it is
# "right" only where it leaves the record as it was or adds a comment line
# (a record's "# tamperstore ... v1" header)
FUZZ_OUTCOMES = {
    "bundle.txt": {"refused": 18, "abort format": 1, "abort mac": 1, "right": 4},
    "params.txt": {"refused": 18, "right": 6},
    "prefix_code.txt": {"refused": 21, "right": 3},
    "secrets.txt": {"refused": 18, "right": 4, "wrong": 2},
}


@cache
def code_and_h(code_name: str):
    """The menu code and its dense H, built once per module."""
    code = default_registry().by_name(code_name)
    return code, reference.parity_check_matrix(code)


def reference_retrieve(session: Path) -> tuple[int, str, int | None]:
    """(omega, abort reason, message) of ``reference.retrieve`` on a session
    directory's files, drawing from the generator of retrieve's default --seed."""
    params = ProtocolParams.load(session / "params.txt")
    code, h = code_and_h(params.code_name)
    bundle = ServerBundle.load(session / "bundle.txt")
    secrets = ClientSecrets.load(session / "secrets.txt")
    basis, value = bundle.register._records()
    ref_bundle = reference.Bundle(bundle.w, bundle.u, bundle.c, bundle.theta, basis, value)
    ref_secrets = reference.Secrets(
        secrets.mac_key, secrets.layout.t, secrets.v, secrets.s, secrets.m_nabla
    )
    rng = np.random.default_rng(build_parser().parse_args(["retrieve"]).seed)
    assert (session / "prefix_code.txt").read_text().endswith("source = str:example1:12\n")
    omega, message, reason = reference.retrieve(
        ref_bundle, ref_secrets, params, code, h, reference.example1_table(12), rng
    )
    return omega, reason, message


@pytest.mark.parametrize("name", SESSION_FILES)
def test_retrieve_of_an_edited_session_refuses_by_name_or_aborts(capsys, tmp_path, name):
    session = _stored_session(capsys, tmp_path)
    texts = {other: (session / other).read_text() for other in SESSION_FILES}
    path = session / name
    rng = np.random.default_rng((2024, SESSION_FILES.index(name)))
    # lines to insert: the first 40 of each record
    pool = [line for text in texts.values() for line in text.splitlines(keepends=True)[:40]]
    counts = {}
    for _ in range(FUZZ_EDITS):
        path.write_text(_fuzz_edit(texts[name], pool, rng))
        code, out, err = run(capsys, "retrieve", "--out", str(session))
        assert code in (0, 1) and "Traceback" not in err, err
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert str(path) in err, err
            assert out == "", out
            outcome = "refused"
        else:
            assert err == "", err
            found = re.fullmatch(r"omega = (\d), abort_reason = (\w+), message = (\w+)\n", out)
            omega, reason, message = found.groups()
            if name == "bundle.txt":  # the server's edits, decided as the reference decides
                printed = (int(omega), reason, None if message == "None" else int(message))
                assert reference_retrieve(session) == printed
            if omega == "0":
                outcome = f"abort {reason}"
            else:
                outcome = "right" if message == "777" else "wrong"
        counts[outcome] = counts.get(outcome, 0) + 1
    if name == "bundle.txt":
        assert "wrong" not in counts
    assert counts == FUZZ_OUTCOMES[name]
