"""Command-line interface tests.

Everything runs in-process through main(argv); stdout carries the CSV
dataset, stderr the human diagnostics, and the exit code the verdict.
"""

import hashlib
import re
from pathlib import Path

import pytest

from qident import auth, budget, cli, protocol1, protocol2
from qident.channel import EveStrategy
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

    @pytest.mark.parametrize("argv", [
        ("budget", "--config"),
        ("auth-tag", "--vectors"),
        ("auth-verify", "--vectors"),
    ], ids=["config", "vectors-tag", "vectors-verify"])
    def test_missing_file_cannot_be_read(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv, str(tmp_path / "absent.txt"))
        assert code == 2 and out == ""
        assert "cannot read" in err

    @pytest.mark.parametrize("line", ["eta_bob = 0.5", "eta_det = 0.1", "a = 61"])
    def test_removed_operating_point_keys_are_unknown(self, capsys, tmp_path, line):
        # the overall efficiency is eta alone and the tag is the field's
        # 61 bits: a config still setting a factor or a width is refused
        cfg = write_config(tmp_path, line + "\n")
        code, out, err = run_cli(capsys, "budget", "--config", cfg)
        assert code == 2 and out == ""
        assert f"line 1: unknown configuration key '{line.split()[0]}'" in err

    @pytest.mark.parametrize("key, names", [
        ("strategy", [e.value for e in EveStrategy]),
        ("impostor", ["none", *protocol1.IMPOSTORS]),
    ])
    def test_choices_are_the_names_the_library_takes(self, key, names):
        for name in names:
            assert parse_config(f"{key} = {name}\n") == {key: name}
        with pytest.raises(RangeError, match=f"must be one of {', '.join(names)}$"):
            parse_config(f"{key} = middle\n")

    def test_readme_table_lists_every_key(self):
        # README's configuration-key table: one row per key of _SPECS, in
        # order, each with the range the parser enforces
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("### Configuration keys", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", section, flags=re.M)
        assert [key for key, _ in rows] == list(cli._SPECS)
        assert {key: rng.strip() for key, rng in rows} == {
            key: spec[2] for key, spec in cli._SPECS.items()}


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

    @pytest.mark.parametrize("n_pulses,seed,digest", [
        (300, 0, "6df7109717af4eb0d0c3f0d1aae48f0f4c9de047d203228bdcbe2dfe0b8fe944"),
        (100_000, 3, "dd9bddbb7343ee1d74ed518c215148f813db28eb85864691e7ee54487f6de082"),
    ])
    def test_dump_pinned(self, capsys, tmp_path, n_pulses, seed, digest):
        cfg = write_config(tmp_path, f"n_pulses = {n_pulses}\n")
        dump = tmp_path / "pulses.csv"
        code, _, _ = run_cli(capsys, "simulate-qkd", "--config", cfg,
                             "--seed", str(seed), "--dump", str(dump))
        assert code == 0
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest

    def test_dump_needs_single_trial(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "n_pulses = 300\n")
        code, _, err = run_cli(
            capsys, "simulate-qkd", "--config", cfg, "--trials", "2",
            "--dump", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "error:" in err

    def test_intercept_resend_fills_knowledge_column(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path, "n_pulses = 20000\nstrategy = intercept-resend\n"
        )
        code, out, _ = run_cli(capsys, "simulate-qkd", "--config", cfg)
        assert code == 0
        assert float(out.splitlines()[2].rsplit(",", 1)[1]) > 0

    def test_per_bit_guess_strategy_refused(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "strategy = per-bit-guess\n")
        code, out, err = run_cli(capsys, "simulate-qkd", "--config", cfg)
        assert code == 2 and out == ""
        assert "strategy" in err

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

    @pytest.mark.parametrize("impostor,digest", [
        ("initiator", "f4f72baad03a51c0946a4bc6735b888b46be2dc11ac215de14f044180a3facb4"),
        ("responder", "587b515994e55529843e005f766ba83a521cfeaa891ae2951b14fd55df0130c4"),
    ])
    def test_impostor_csv_pinned(self, capsys, tmp_path, impostor, digest):
        cfg = write_config(tmp_path, f"impostor = {impostor}\n")
        out = tmp_path / "p1.csv"
        code, _, _ = run_cli(capsys, "protocol1", "--config", cfg, "--seed", "4",
                             "--trials", "30", "--out", str(out))
        assert code == 1
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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

    @pytest.mark.parametrize("command", ["deception", "epslim", "budget", "optimize-mu"])
    def test_trials_refused_where_nothing_repeats(self, capsys, command):
        with pytest.raises(SystemExit) as stop:
            main([command, "--trials", "2"])
        assert stop.value.code == 2
        assert "--trials" in capsys.readouterr().err


# The four criterion-11 CSVs not pinned by the tests above, at the
# command lines of the acceptance suite; desk.cfg sets n_pulses = 100000.
CRITERION_11_CSV = [
    (("simulate-qkd", "--config", "desk.cfg", "--seed", "3", "--trials", "2"),
     "ac892044eac8392676376a07e1021ae19618e9fbf1b1760146017cd94834f4e1"),
    (("protocol2", "--config", "desk.cfg", "--seed", "5"),
     "19066ffdda03c34e4ad08b9306ce20261d1e39748c2e32a359831cfbbdeb5efc"),
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

    def test_tag_printed_as_16_zero_padded_hex_digits(self, capsys):
        msg, key = self.make_single_args()
        code, out, _ = run_cli(capsys, "auth-tag", "--message", msg, "--key", key)
        words, _ = auth.key_from_bits(BitString.from_text(key), auth.words_needed(64))
        assert code == 0
        assert out == f"{auth.authenticate(BitString.from_text(msg), words):016x}\n"
        zero_key = "244:" + "0" * 62  # every key word 0, so the tag is 0
        code, out, _ = run_cli(capsys, "auth-tag", "--message", msg, "--key", zero_key)
        assert (code, out) == (0, "0" * 16 + "\n")
        code, out, _ = run_cli(capsys, "auth-verify", "--message", msg,
                               "--key", zero_key, "--tag", "0" * 16)
        assert (code, out) == (0, "tag valid\n")

    @pytest.mark.parametrize("tag", [
        "0" * 15, "0" * 17, "00000000000000g0", "0x00000000000001",
        format(auth.M61, "016x"), "f" * 16,
    ])
    def test_verify_rejects_malformed_tag(self, capsys, tag):
        msg, key = self.make_single_args()
        code, out, err = run_cli(
            capsys, "auth-verify", "--message", msg, "--key", key, "--tag", tag
        )
        assert code == 2
        assert out == ""
        assert "bad tag" in err

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

    @pytest.mark.parametrize("words", ["0", "1", "-1"])
    def test_word_count_below_two_is_refused(self, capsys, words):
        # --words 0 used to fall back to the default count and exit 0
        msg, key = self.make_single_args()
        code, out, err = run_cli(
            capsys, "auth-tag", "--message", msg, "--key", key, "--words", words
        )
        assert (code, out) == (2, "")
        assert "two words" in err
        code, out, err = run_cli(
            capsys, "auth-verify", "--message", msg, "--key", key,
            "--tag", "0" * 16, "--words", words,
        )
        assert (code, out) == (2, "")
        assert "two words" in err

    @pytest.mark.parametrize("text", ["3:ff", "3:ffff", "16:dea"])
    def test_non_canonical_message_text_is_refused(self, capsys, text):
        _, key = self.make_single_args()
        code, out, err = run_cli(capsys, "auth-tag", "--message", text, "--key", key)
        assert (code, out) == (2, "")
        assert "bad message" in err

    def make_vector_file(self, tmp_path, tamper_line=None):
        rng = make_rng(77)
        lines = []
        for msg01, n_words in (("0", 2), ("10", 3), (None, auth.PRODUCTION_WORDS)):
            msg = random_bitstring(100, rng) if msg01 is None else BitString.from01(msg01)
            key, _ = auth.key_from_pool(
                SecretPool(random_bitstring(61 * n_words + 610, rng)), n_words)
            lines.append(auth.format_vector_line(key, msg, auth.authenticate(msg, key)))
        if tamper_line is not None:
            fields = lines[tamper_line].split()
            fields[4] = f"{(int(fields[4], 16) + 1) % auth.M61:016x}"
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

    @pytest.mark.parametrize("command", ["auth-tag", "auth-verify"])
    def test_vector_line_with_another_modulus_is_refused(self, capsys, tmp_path, command):
        # a well-formed line over GF(5) after the three production lines
        good = open(self.make_vector_file(tmp_path), encoding="utf-8").read()
        path = tmp_path / "mixed.txt"
        path.write_text(good + "5 3 000000000000000400000000000000000000000000000002 2:80 "
                        "0000000000000003\n", encoding="utf-8")
        code, _, err = run_cli(capsys, command, "--vectors", str(path))
        assert code == 2
        assert "vector line 5: modulus 5 is not 2**61 - 1" in err

    @pytest.mark.parametrize("command", ["auth-tag", "auth-verify"])
    def test_non_canonical_vector_line_is_refused(self, capsys, tmp_path, command):
        # hex that int(_, 16) reads but format_vector_line never writes
        good = open(self.make_vector_file(tmp_path), encoding="utf-8").read()
        path = tmp_path / "lenient.txt"
        path.write_text(good + f"{auth.M61} 2 0x000000000000050000_00000000007 4:a0 0x3\n",
                        encoding="utf-8")
        code, _, err = run_cli(capsys, command, "--vectors", str(path))
        assert code == 2
        assert "vector line 5: line is not in the canonical vector form" in err
