"""Command-line interface tests.

Everything runs in-process through main(argv); stdout carries the CSV
dataset, stderr the human diagnostics, and the exit code the verdict.
"""

import hashlib

import pytest

from qident import auth, budget, cli, protocol1, protocol2
from qident.cli import ParseError, RangeError, main, parse_config
from qident.core import BitString, SecretPool, make_rng, random_bitstring


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_config(tmp_path, text, name="params.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_round_trip(self):
        cfg = {"n_pulses": 100_000, "mu": 0.8, "eps": 0.004, "strategy": "beamsplit"}
        assert parse_config("".join(f"{k} = {v}\n" for k, v in cfg.items())) == cfg

    def test_comments_and_blanks(self):
        cfg = parse_config("# heading\n\n  s = 500  # trailing\n")
        assert cfg == {"s": 500}

    def test_unknown_key_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config("s = 10\nbogus = 1\n")

    def test_unparseable_value(self):
        with pytest.raises(ParseError, match="cannot parse"):
            parse_config("mu = fast\n")

    def test_missing_equals(self):
        with pytest.raises(ParseError, match="key = value"):
            parse_config("mu 0.8\n")

    def test_out_of_range_names_field(self):
        with pytest.raises(RangeError, match="'mu'"):
            parse_config("mu = 2.0\n")


class TestSimulateQkd:
    def test_csv_shape_and_determinism(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "n_pulses = 20000\n")
        args = ("simulate-qkd", "--config", cfg, "--seed", "3", "--trials", "2")
        code, out1, err = run_cli(capsys, *args)
        assert code == 0
        lines = out1.splitlines()
        assert lines[0].startswith("# seed=3 config_sha256=")
        assert lines[1] == "trial,detected,sifted,errors,rate,eve_known_bits"
        assert len(lines) == 4
        assert "trial 0:" in err and "trial 1:" in err
        code, out2, _ = run_cli(capsys, *args)
        assert out2 == out1

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "n_pulses = 20000\n")
        code, out, _ = run_cli(capsys, "simulate-qkd", "--config", cfg, "--seed", "5")
        dest = tmp_path / "data.csv"
        code2, out2, _ = run_cli(
            capsys, "simulate-qkd", "--config", cfg, "--seed", "5", "--out", str(dest)
        )
        assert code == code2 == 0
        assert out2 == ""
        assert dest.read_text(encoding="utf-8") == out

    def test_dump_transcript(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "n_pulses = 300\n")
        dump = tmp_path / "pulses.csv"
        code, _, _ = run_cli(
            capsys, "simulate-qkd", "--config", cfg, "--dump", str(dump)
        )
        assert code == 0
        rows = dump.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "pulse,alice_bit,alice_basis,bob_basis,detected,bob_bit"
        assert len(rows) == 301

    def test_dump_needs_single_trial(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "n_pulses = 300\n")
        code, _, err = run_cli(
            capsys, "simulate-qkd", "--config", cfg, "--trials", "2",
            "--dump", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "error:" in err

    def test_intercept_resend_blanks_knowledge_column(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path, "n_pulses = 20000\nstrategy = intercept-resend\n"
        )
        code, out, _ = run_cli(capsys, "simulate-qkd", "--config", cfg)
        assert code == 0
        assert out.splitlines()[2].endswith(",")

    def test_bad_config_value(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "eta_tl = 0\n")
        code, _, err = run_cli(capsys, "simulate-qkd", "--config", cfg)
        assert code == 2
        assert "eta_tl" in err


class TestProtocol1Command:
    def test_honest_sessions_exit_zero(self, capsys):
        code, out, err = run_cli(capsys, "protocol1", "--trials", "50", "--seed", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "outcome,count"
        outcomes = {row.split(",")[0] for row in lines[2:]}
        assert outcomes == {"success", "abort-pass1", "abort-pass2", "abort-pass3"}
        assert "success rate" in err

    def test_impostor_exits_one(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "impostor = initiator\n")
        code, out, _ = run_cli(
            capsys, "protocol1", "--config", cfg, "--trials", "5"
        )
        assert code == 1
        assert "success,0" in out

    def test_runs_each_session_through_run_protocol1(self, capsys, tmp_path,
                                                     monkeypatch):
        # the benchmark's traced run wraps protocol1.run_protocol1 and
        # fails when no call reaches it; the CSV digest is the one its
        # behaviour check holds
        calls = []
        real = protocol1.run_protocol1

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(protocol1, "run_protocol1", counting)
        out = tmp_path / "p1.csv"
        code, _, _ = run_cli(capsys, "protocol1", "--seed", "4", "--trials", "30",
                             "--out", str(out))
        assert code == 0
        assert len(calls) == 30
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "c9a36afcd17b88e80e3fc614ffb16928279f74563a6c3076f35c1799f3ea05f8"
        )

    def test_trials_must_be_positive(self, capsys):
        code, _, err = run_cli(capsys, "protocol1", "--trials", "0")
        assert code == 2
        assert "trials" in err


class TestProtocol2Command:
    CFG = "n_pulses = 100000\n"

    def test_honest_session(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        code, out, err = run_cli(capsys, "protocol2", "--config", cfg, "--seed", "1")
        assert code == 0
        lines = out.splitlines()
        header = lines[1].split(",")
        assert header == [
            "trial", "n_pulses", "identified", "aborted_at", "refueled",
            "refuel_reason", "s_real", "k", "eps_est", "sifted", "key_bits",
            "leak", "out_len", "consumed", "gained", "net",
        ]
        row = lines[2].split(",")
        assert row[1] == "100000"
        assert row[2] == "1" and row[4] == "1"
        assert "identified=True" in err

    def test_intercept_resend_identifies_but_never_refuels(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.CFG + "strategy = intercept-resend\n")
        code, out, _ = run_cli(capsys, "protocol2", "--config", cfg)
        assert code == 0  # identification still succeeded
        row = out.splitlines()[2].split(",")
        assert row[2] == "1" and row[4] == "0"
        assert row[5] == "verdict-reject"

    def test_too_few_pulses_is_a_runtime_error(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "n_pulses = 5000\n")
        code, _, err = run_cli(capsys, "protocol2", "--config", cfg)
        assert code == 2
        assert "error:" in err

    def test_deterministic(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        args = ("protocol2", "--config", cfg, "--seed", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestAnalysisCommands:
    def test_deception_dataset(self, capsys):
        code, out, err = run_cli(capsys, "deception")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split(",")[:3] == ["n_is", "eps", "p_crit"]
        assert len(lines) == 62  # sixty grid rows
        assert "critical guess probability" in err

    def test_epslim_dataset(self, capsys):
        code, out, err = run_cli(capsys, "epslim")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 24  # 9 + 13 sample sizes
        cells = [row.split(",")[3] for row in lines[2:]]
        assert cells[0] == ""  # s=100 certifies nothing at this budget
        assert cells[-1] != ""
        assert "acceptance limit" in err

    def test_budget_table(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "n_pulses = 6250000\n")
        code, out, err = run_cli(capsys, "budget", "--config", cfg)
        assert code == 0
        lines = out.splitlines()
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert row["b_min"] == "50215"
        assert row["planned"] == "50325"
        assert float(row["distilled"]) == pytest.approx(121265.6, abs=0.1)
        # a session spends the planned keys, not the three messages' minimum
        assert float(row["net"]) == float(row["distilled"]) - 50325
        assert "minimum initial secret" in err
        assert f"net per session (estimate)  {float(row['net']):.1f}" in err

    def test_budget_csv_pinned(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "n_pulses = 100000\n")
        out = tmp_path / "budget.csv"
        code, _, _ = run_cli(capsys, "budget", "--config", cfg, "--seed", "8",
                             "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "ba305e7ef5fcc3a9b1de19709ba0ad0fa41cf05a5f29fb5ad7a995b47e5e92ea"
        )

    def test_optimize_mu_dataset(self, capsys):
        code, out, err = run_cli(capsys, "optimize-mu")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "mu,distilled_per_pulse,break_even_pulses"
        assert len(lines) == 152  # 0.01 .. 1.50
        assert "best intensity mu* = 0.91" in err
        assert lines[2].split(",")[0] == "0.01"
        assert lines[-1].split(",")[0] == "1.5"

    def test_optimize_mu_csv_pinned(self, capsys, tmp_path, monkeypatch):
        # the benchmark's traced run wraps budget.optimize_intensity and
        # budget.break_even_pulses and fails when no call reaches them
        calls = []
        for name in ("optimize_intensity", "break_even_pulses"):
            real = getattr(budget, name)
            monkeypatch.setattr(budget, name, lambda *a, real=real, name=name, **k:
                                calls.append(name) or real(*a, **k))
        out = tmp_path / "mu.csv"
        code, _, err = run_cli(capsys, "optimize-mu", "--seed", "9", "--out", str(out))
        assert code == 0
        assert sorted(calls) == ["break_even_pulses"] * 2 + ["optimize_intensity"]
        assert "break-even pulses at mu=0.8: 2515792" in err
        assert "break-even pulses at re-tuned mu: 2481460" in err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d91f1449dd2e01a56843daba0e6c6a4fa1552ab4334862d9f38dd4900978a4b3"
        )

    def test_optimize_mu_skips_intensities_past_a_beamsplit_fraction_of_one(
        self, capsys, tmp_path
    ):
        # eta * mu**2 / (8 * eta_tl) is 0.4 at mu = 0.8 and passes one
        # from mu = 1.27 on the grid: those rows distil nothing, never
        # break even, and mu* is chosen among the rest
        cfg = write_config(tmp_path, "eta = 1\neta_tl = 0.2\nmu = 0.8\n")
        code, out, err = run_cli(capsys, "optimize-mu", "--config", cfg)
        assert code == 0
        assert "best intensity mu* = 0.29" in err
        rows = [line.split(",") for line in out.splitlines()[2:]]
        past = [row for row in rows if float(row[0]) >= 1.27]
        assert len(past) == 24
        assert all(rate == "0.0" and even == "" for _, rate, even in past)

    def test_determinism_across_analysis_commands(self, capsys):
        for cmd in ("deception", "epslim", "budget", "optimize-mu"):
            _, out1, _ = run_cli(capsys, cmd)
            _, out2, _ = run_cli(capsys, cmd)
            assert out1 == out2, cmd


# The four criterion-11 CSVs not pinned by the tests above, at the
# command lines of the acceptance suite; desk.cfg sets n_pulses = 100000.
CRITERION_11_CSV = [
    (("simulate-qkd", "--config", "desk.cfg", "--seed", "3", "--trials", "2"),
     "817012099e8cd2e90b930257cd862737489e3bd598439855b7a30db51d9009ef"),
    (("protocol2", "--config", "desk.cfg", "--seed", "5"),
     "e12bf0061746bccc319d32c6198a64f948e81cc09a61419edc582f73077cb72e"),
    (("deception", "--seed", "6"),
     "53837e38d138f2086b675838261f33360029d65bc09a3d315503deb1c277f38e"),
    (("epslim", "--seed", "7"),
     "716849ff048d951e2625bedbc1a072b44f0e1c05c8cab2b9f01042d1888d6831"),
]


@pytest.mark.parametrize("argv,digest", CRITERION_11_CSV,
                         ids=[argv[0] for argv, _ in CRITERION_11_CSV])
def test_criterion_11_csv_pinned(capsys, tmp_path, argv, digest):
    cfg = write_config(tmp_path, "n_pulses = 100000\n", name="desk.cfg")
    out = tmp_path / "out.csv"
    argv = [cfg if a == "desk.cfg" else a for a in argv]
    code, _, _ = run_cli(capsys, *argv, "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestBeamsplitFractionAboveOne:
    # every value lies within its field's range, but
    # eta * mu**2 / (8 * eta_tl) = 2.5
    CFG = "eta = 1\neta_tl = 0.05\nmu = 1\nn_pulses = 100000\n"

    def test_budget_names_the_fields(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        code, out, err = run_cli(capsys, "budget", "--config", cfg)
        assert code == 2
        assert out == ""
        assert "mu=1.0, eta=1.0, eta_tl=0.05" in err

    @pytest.mark.parametrize("command", ["protocol2", "simulate-qkd"])
    def test_no_session_or_run_starts(self, capsys, tmp_path, monkeypatch, command):
        def never(*args, **kwargs):
            raise AssertionError("reached with an invalid operating point")

        monkeypatch.setattr(protocol2, "run_protocol2", never)
        monkeypatch.setattr(cli, "run_qkd", never)
        cfg = write_config(tmp_path, self.CFG)
        code, out, err = run_cli(capsys, command, "--config", cfg)
        assert code == 2
        assert out == ""
        assert "beamsplit fraction" in err


class TestAuthCommands:
    def make_single_args(self):
        rng = make_rng(31)
        msg = random_bitstring(64, rng)
        key_bits = random_bitstring(61 * 4, rng)
        return msg.to_text(), key_bits.to_text()

    def test_tag_then_verify(self, capsys):
        msg, key = self.make_single_args()
        code, out, _ = run_cli(capsys, "auth-tag", "--message", msg, "--key", key)
        assert code == 0
        tag_hex = out.strip()
        assert len(tag_hex) == 16
        code, out, _ = run_cli(
            capsys, "auth-verify", "--message", msg, "--key", key, "--tag", tag_hex
        )
        assert code == 0
        assert "tag valid" in out

    def test_verify_rejects_wrong_tag(self, capsys):
        msg, key = self.make_single_args()
        code, out, _ = run_cli(
            capsys, "auth-verify", "--message", msg, "--key", key,
            "--tag", "00000000000000ff",
        )
        assert code == 1
        assert "INVALID" in out

    def test_missing_flags(self, capsys):
        code, _, err = run_cli(capsys, "auth-tag", "--message", "4:a0")
        assert code == 2
        assert "--key" in err
        code, _, err = run_cli(
            capsys, "auth-verify", "--message", "4:a0", "--key", "61:" + "0" * 16
        )
        assert code == 2
        assert "--tag" in err

    def test_word_budget_too_small(self, capsys):
        msg, key = self.make_single_args()
        code, _, err = run_cli(
            capsys, "auth-tag", "--message", msg, "--key", key, "--words", "1"
        )
        assert code == 2
        assert "error:" in err

    def make_vector_file(self, tmp_path, tamper_line=None):
        rng = make_rng(77)
        lines = []
        params = auth.AuthParams(p=5, d=3)
        for msg01 in ("0", "10"):
            msg = BitString.from01(msg01)
            key, _ = auth.key_from_pool(SecretPool(random_bitstring(90, rng)), 3, p=5)
            tag = auth.tag_message(key, auth.encode_message(msg, 3, p=5), p=5)
            lines.append(auth.format_vector_line(params, key, msg, tag))
        prod = auth.AuthParams()
        msg = random_bitstring(100, rng)
        key, _ = auth.key_from_pool(
            SecretPool(random_bitstring(auth.PRODUCTION_KEY_BITS + 610, rng)), prod.d
        )
        tag = auth.authenticate(msg, key)
        lines.append(auth.format_vector_line(prod, key, msg, tag))
        if tamper_line is not None:
            fields = lines[tamper_line].split()
            fields[4] = format((int(fields[4], 16) + 1) % 5, "x")
            lines[tamper_line] = " ".join(fields)
        path = tmp_path / "vectors.txt"
        path.write_text("# test vectors\n" + "\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_vector_file_verifies(self, capsys, tmp_path):
        path = self.make_vector_file(tmp_path)
        code, out, _ = run_cli(capsys, "auth-verify", "--vectors", path)
        assert code == 0
        assert out.count(": ok") == 3 and "BAD" not in out

    def test_vector_file_flags_tampering(self, capsys, tmp_path):
        path = self.make_vector_file(tmp_path, tamper_line=1)
        code, out, _ = run_cli(capsys, "auth-verify", "--vectors", path)
        assert code == 1
        assert "line 3: BAD" in out  # the comment line shifts numbering
        assert out.count(": ok") == 2

    def test_tag_command_fills_vectors(self, capsys, tmp_path):
        path = self.make_vector_file(tmp_path, tamper_line=0)
        code, out, _ = run_cli(capsys, "auth-tag", "--vectors", path)
        assert code == 0
        refreshed = tmp_path / "refreshed.txt"
        refreshed.write_text(out, encoding="utf-8")
        code, out, _ = run_cli(capsys, "auth-verify", "--vectors", str(refreshed))
        assert code == 0

    def test_malformed_vector_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("5 3 012\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "auth-verify", "--vectors", str(path))
        assert code == 2
        assert "vector line 1" in err
