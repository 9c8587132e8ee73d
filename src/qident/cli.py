"""Command-line front end.

    qident <command> [--config FILE] [--seed N] [--trials N] [--out FILE]

--trials is taken by simulate-qkd, protocol1 and protocol2 only.

Commands
    simulate-qkd   Monte-Carlo transmission sessions, sifting statistics
    protocol1      identification sessions over the unjammable channel
    protocol2      identification + refuelling sessions, public channel
    deception      impersonation bounds and information curves vs error rate
    epslim         Bayesian acceptance threshold vs sample size
    budget         secret-bit budget breakdown at an operating point
    optimize-mu    distillation rate and break-even size per pulse intensity
    auth-tag       tag messages (single flags or a vector file)
    auth-verify    check tags produced by auth-tag

Parameters come from an optional config file of "key = value" lines
('#' starts a comment); unknown keys and out-of-range values are
rejected with the offending line or field named.  Every command is
deterministic for a given seed (default 0): rerunning with the same
inputs emits byte-identical output.

The dataset goes to stdout as CSV (or to --out) with a leading comment
line recording the seed and the SHA-256 of the effective configuration;
human-readable diagnostics go to stderr.

Exit status: 0 on success, 1 when every simulated session failed to
identify (or a tag failed verification), 2 on usage, configuration or
runtime errors.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import string
import sys
from dataclasses import fields, replace

import numpy as np

from . import auth, budget, estimation, protocol1, protocol2
from .budget import BudgetParams
from .channel import EveParams, EveStrategy, run_qkd, write_transcript_csv
from .core import BitString, QidentError, make_rng
from .protocol1 import IdentOutcome

__all__ = ["main", "ConfigError", "ParseError", "RangeError", "load_config"]


class ConfigError(QidentError):
    """Configuration could not be used."""


class ParseError(ConfigError):
    """Malformed configuration line or unknown key; names the line."""


class RangeError(ConfigError):
    """Value outside its permitted range; names the field."""


def _pos_int(lo=1):
    return lambda v: isinstance(v, int) and v >= lo


def _one_of(names) -> tuple:
    return (str, lambda v: v in names, "one of " + ", ".join(names))


_SPECS: dict[str, tuple] = {
    # key: (type, validator, range description)
    "n_pulses": (int, _pos_int(2), "integer >= 2"),
    "mu": (float, lambda v: 0.0 < v <= 1.5, "in (0, 1.5]"),
    "eta_tl": (float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "eta": (float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "eps": (float, lambda v: 0.0 <= v < 0.5, "in [0, 1/2)"),
    "eps_max": (float, lambda v: 0.0 < v < 0.5, "in (0, 1/2)"),
    "delta": (float, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "s": (int, _pos_int(1), "integer >= 1"),
    "n_is": (int, _pos_int(1), "integer >= 1"),
    "p_bar": (float, lambda v: 0.5 <= v <= 1.0, "in [1/2, 1]"),
    "strategy": _one_of([e.value for e in EveStrategy]),
    "fraction": (float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "impostor": _one_of(["none", *protocol1.IMPOSTORS]),
}


def _coerce(key: str, raw: str, where: str):
    if key not in _SPECS:
        raise ParseError(f"{where}: unknown configuration key '{key}'")
    typ, check, rng = _SPECS[key]
    try:
        val = typ(raw)
    except ValueError:
        raise ParseError(
            f"{where}: cannot parse '{raw}' as {typ.__name__} for '{key}'"
        ) from None
    if not check(val):
        raise RangeError(f"field '{key}': value {raw} out of range, must be {rng}")
    return val


def parse_config(text: str) -> dict:
    cfg = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {ln}: expected key = value")
        key, _, raw = line.partition("=")
        cfg[key.strip()] = _coerce(key.strip(), raw.strip(), f"line {ln}")
    return cfg


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    return parse_config(text)


def _budget_params(cfg: dict) -> BudgetParams:
    """The reference operating point with the config's fields applied."""
    given = {f.name: cfg[f.name] for f in fields(BudgetParams) if f.name in cfg}
    try:
        return replace(BudgetParams.reference(), **given)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _eve_params(cfg: dict) -> EveParams:
    return EveParams(EveStrategy(cfg.get("strategy", "none")), cfg.get("fraction", 1.0))


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # native repr even for numpy scalars
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def _say(*parts) -> None:
    print(*parts, file=sys.stderr)


def _emit(args, cfg, rows) -> None:
    """Write rows, one dict each, as CSV under the first row's keys."""
    canon = "".join(f"{k}={_fmt(v)}\n" for k, v in sorted(cfg.items()))
    digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    lines = [f"# seed={args.seed} config_sha256={digest}", ",".join(rows[0])]
    lines += [",".join(_fmt(v) for v in row.values()) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- commands -----------------------------------------------------------


def cmd_simulate_qkd(args, cfg) -> int:
    params = _budget_params(cfg)
    eve = _eve_params(cfg)
    if args.dump and args.trials != 1:
        raise ConfigError("--dump records a single run; use --trials 1")
    root = make_rng(args.seed)
    rows = []
    for t in range(args.trials):
        run = run_qkd(params, root, eve)
        rows.append(dict(trial=t, detected=run.n_detected, sifted=run.n_sifted,
                         errors=run.error_count, rate=run.error_rate,
                         eve_known_bits=run.eve_information_bits()))
        _say(f"trial {t}: detected={run.n_detected} sifted={run.n_sifted} "
             f"errors={run.error_count} rate={run.error_rate:.5f}")
        if args.dump:
            with open(args.dump, "w", encoding="utf-8", newline="") as fh:
                write_transcript_csv(run, fh)
            _say(f"per-pulse transcript written to {args.dump}")
    _emit(args, cfg, rows)
    return 0


def cmd_protocol1(args, cfg) -> int:
    default = protocol1.Protocol1Params()
    params = protocol1.Protocol1Params(
        n_is=cfg.get("n_is", default.n_is), eps=cfg.get("eps", default.eps)
    )
    impostor = cfg.get("impostor", "none")
    counts = protocol1.run_sessions(
        params, args.trials, seed=args.seed,
        impostor=None if impostor == "none" else impostor,
    )
    expected = protocol1.expected_success_probability(params)
    successes = counts[IdentOutcome.SUCCESS]
    for outcome in IdentOutcome:
        _say(f"{outcome.value}: {counts[outcome]}")
    _say(f"success rate {successes / args.trials:.4f} "
         f"(honest-case expectation {expected:.4f})")
    _emit(args, cfg, [dict(outcome=o.value, count=counts[o]) for o in IdentOutcome])
    return 0 if successes else 1


def cmd_protocol2(args, cfg) -> int:
    params = _budget_params(cfg)
    adversary = protocol2.AdversaryScript(eve=_eve_params(cfg))
    root = make_rng(args.seed)
    rows = []
    identified = 0
    for t in range(args.trials):
        r = protocol2.run_protocol2(params, seed=root, adversary=adversary)
        identified += r.identified
        rows.append(dict(
            trial=t, n_pulses=params.n_pulses, identified=int(r.identified),
            aborted_at=r.aborted_at or "", refueled=int(r.refueled),
            refuel_reason=r.refuel_reason or "", s_real=r.s_real, k=r.k,
            eps_est="" if r.eps_est is None else r.eps_est, sifted=r.n_sifted,
            key_bits=r.n_key, leak=r.leak, out_len=r.out_len,
            consumed=r.consumed_alice, gained=r.gained, net=r.net))
        _say(f"trial {t}: identified={r.identified} refueled={r.refueled} "
             f"s_real={r.s_real} k={r.k} out_len={r.out_len} "
             f"consumed={r.consumed_alice} net={r.net}"
             + (f" ({r.aborted_at or r.refuel_reason})"
                if not (r.identified and r.refueled) else ""))
    _emit(args, cfg, rows)
    return 0 if identified else 1


def cmd_deception(args, cfg) -> int:
    default = protocol1.Protocol1Params()
    n_is = cfg.get("n_is", default.n_is)
    eps_pt = cfg.get("eps", default.eps)
    p_bar_pt = cfg.get("p_bar")
    if p_bar_pt is None:
        p_bar_pt = 0.5 + (eps_pt * (1.0 - eps_pt)) ** 0.5  # optimal-attack rate
    k = budget.tolerance(n_is, eps_pt)
    exact_pt = budget.deception_probability_exact([p_bar_pt] * n_is, k)
    bound_pt = math.exp(budget.log_deception_probability_bound(n_is, eps_pt, p_bar_pt))
    _say(f"n_is={n_is} eps={eps_pt} k={k} p_bar={p_bar_pt:.6f}")
    _say(f"exact deception probability  {exact_pt:.6e}")
    _say(f"closed-form bound            {bound_pt:.6e}")
    _say(f"critical guess probability   {budget.critical_guess_probability(eps_pt):.6f}")
    _say(f"defendable information limit {budget.info_limit(eps_pt):.6f} bits/bit")
    _say(f"optimal attack information   {budget.optimal_attack_info(eps_pt):.6f} bits/bit")

    # information-vs-error-rate dataset over a fixed grid
    rows = []
    for i in range(1, 61):
        eps = round(0.005 * i, 3)
        p_bar = 0.5 + (eps * (1.0 - eps)) ** 0.5
        rows.append(dict(
            n_is=n_is, eps=eps, p_crit=budget.critical_guess_probability(eps),
            channel_info=budget.channel_mutual_info(eps),
            attack_info=budget.optimal_attack_info(eps), info_limit=budget.info_limit(eps),
            deception_exact=budget.deception_probability_exact(
                [min(p_bar, 1.0)] * n_is, budget.tolerance(n_is, eps))))
    _emit(args, cfg, rows)
    return 0


def cmd_epslim(args, cfg) -> int:
    ref = BudgetParams.reference()
    s_pt = cfg.get("s", ref.s)
    delta = cfg.get("delta", ref.delta)
    eps_max = cfg.get("eps_max", ref.eps_max)
    limit = estimation.solve_eps_limit(s_pt, delta, eps_max)
    _say(f"s={s_pt} delta={delta} eps_max={eps_max}")
    _say(f"acceptance limit on observed error rate: {limit:.5f}")
    _say(f"posterior tail there: {estimation.posterior_tail(s_pt, limit, eps_max):.3e}")
    _say(f"highest acceptable mismatch count: "
         f"{estimation.acceptable_error_count(s_pt, delta, eps_max)}")

    # threshold-vs-sample-size dataset
    rows = []
    for s in list(range(100, 1000, 100)) + list(range(1000, 4001, 250)):
        try:
            lim = estimation.solve_eps_limit(s, delta, eps_max)
        except estimation.NoSolution:
            lim = ""
        rows.append(dict(s=s, delta=delta, eps_max=eps_max, eps_limit=lim))
    _emit(args, cfg, rows)
    return 0


def cmd_budget(args, cfg) -> int:
    params = _budget_params(cfg)
    b_min = budget.min_initial_secret_bits(params.n_pulses, params.s)
    planned = budget.planned_key_consumption(params.n_pulses, params.s)
    terms = budget.distilled_terms(params)
    _say(f"operating point: N={params.n_pulses} mu={params.mu} "
         f"eta={params.eta:.6g} eps={params.eps}")
    _say(f"minimum initial secret      {b_min}")
    _say(f"planned key consumption     {planned}")
    _say(f"expected sifted length      {budget.expected_sifted_len(params):.1f}")
    _say(f"after error correction      {terms.corrected:.1f}")
    _say(f"  beamsplit penalty         {terms.beamsplit:.1f}")
    _say(f"  probe-attack penalty      {terms.probe_attack:.1f}")
    _say(f"  five-sigma margin         {terms.five_sigma:.1f}")
    _say(f"  compression overhead      {terms.pa_compression:.1f}")
    _say(f"distilled key               {terms.total:.1f}")
    _say(f"net per session (estimate)  {terms.total - planned:.1f}")
    _emit(args, cfg, [dict(
        n_pulses=params.n_pulses, mu=params.mu, eta=params.eta, eps=params.eps,
        b_min=b_min, planned=planned, sifted=budget.expected_sifted_len(params),
        corrected=terms.corrected, beamsplit=terms.beamsplit,
        probe_attack=terms.probe_attack, five_sigma=terms.five_sigma,
        pa_compression=terms.pa_compression, distilled=terms.total,
        net=terms.total - planned)])
    return 0


def cmd_optimize_mu(args, cfg) -> int:
    params = _budget_params(cfg)
    mu_star, rate = budget.optimize_intensity(params)

    def even(reopt: bool):
        try:
            return budget.break_even_pulses(params, reoptimize_mu=reopt)
        except budget.NeverBreaksEven:
            return None

    fixed, opt = even(False), even(True)
    _say(f"best intensity mu* = {mu_star:.2f} "
         f"({rate:.6f} distilled bits per pulse at N={params.n_pulses})")
    _say(f"break-even pulses at mu={params.mu}: {fixed if fixed else 'never'}")
    _say(f"break-even pulses at re-tuned mu: {opt if opt else 'never'}")

    # rate and break-even size per intensity
    grid = budget.default_mu_grid()
    rates = budget.distilled_per_pulse(params, grid)
    evens = budget.break_even_grid(params, grid)
    _emit(args, cfg, [dict(mu=round(float(mu), 2), distilled_per_pulse=r,
                           break_even_pulses="" if be == budget.NEVER else be)
                      for mu, r, be in zip(grid, rates, evens)])
    return 0


def _parse_bits(text: str, what: str) -> BitString:
    try:
        return BitString.from_text(text)
    except ValueError as e:
        raise ConfigError(f"bad {what}: {e}") from None


def _parse_tag(text: str) -> int:
    """A tag as auth-tag prints it: 16 hex digits, below 2**61 - 1."""
    if len(text) == 16 and all(c in string.hexdigits for c in text):
        tag = int(text, 16)
        if tag < auth.M61:
            return tag
    raise ConfigError(f"bad tag '{text}': need 16 hex digits below 2**61 - 1")


def _iter_vectors(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise ConfigError(f"cannot read vectors: {e}") from None
    for ln, line in enumerate(lines, 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            yield ln, auth.parse_vector_line(line)
        except (ValueError, QidentError) as e:
            raise ParseError(f"vector line {ln}: {e}") from None


def _key_for(args, message: BitString) -> tuple[int, ...]:
    """--words key words (default: as many as message needs) from --key."""
    key_bits = _parse_bits(args.key, "key")
    n_words = args.words if args.words is not None else auth.words_needed(len(message))
    key, _ = auth.key_from_bits(key_bits, n_words)
    return key


def cmd_auth_tag(args, cfg) -> int:
    if args.vectors:
        for _, (key, msg, _) in _iter_vectors(args.vectors):
            print(auth.format_vector_line(key, msg, auth.authenticate(msg, key)))
        return 0
    message = _parse_bits(args.message, "message")
    print(f"{auth.authenticate(message, _key_for(args, message)):016x}")
    return 0


def cmd_auth_verify(args, cfg) -> int:
    if args.vectors:
        bad = 0
        for ln, (key, msg, tag) in _iter_vectors(args.vectors):
            ok = auth.authenticate(msg, key) == tag
            bad += not ok
            print(f"line {ln}: {'ok' if ok else 'BAD'}")
        return 1 if bad else 0
    message = _parse_bits(args.message, "message")
    key = _key_for(args, message)
    if auth.verify(message, _parse_tag(args.tag), key):
        print("tag valid")
        return 0
    print("tag INVALID")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qident",
        description="quantum identification laboratory: simulations and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value parameter file")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--out", help="write the CSV here instead of stdout")

    for name, fn in [
        ("simulate-qkd", cmd_simulate_qkd),
        ("protocol1", cmd_protocol1),
        ("protocol2", cmd_protocol2),
        ("deception", cmd_deception),
        ("epslim", cmd_epslim),
        ("budget", cmd_budget),
        ("optimize-mu", cmd_optimize_mu),
    ]:
        p = sub.add_parser(name)
        common(p)
        if name in ("simulate-qkd", "protocol1", "protocol2"):
            p.add_argument("--trials", type=int, default=1, help="number of sessions")
        if name == "simulate-qkd":
            p.add_argument("--dump", help="write a per-pulse transcript CSV here")
        p.set_defaults(fn=fn)

    for name, fn in [("auth-tag", cmd_auth_tag), ("auth-verify", cmd_auth_verify)]:
        p = sub.add_parser(name)
        p.add_argument("--vectors", help="test-vector file (p d key_hex msg tag_hex)")
        p.add_argument("--message", help='message as "<bits>:<hex>"')
        p.add_argument("--key", help='key bits as "<bits>:<hex>"')
        p.add_argument("--words", type=int, help="key words (default: fit message)")
        if name == "auth-verify":
            p.add_argument("--tag", help="16 hex digits")
        p.set_defaults(fn=fn, config=None, seed=0, out=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "trials", 1) < 1:
        print("error: --trials must be positive", file=sys.stderr)
        return 2
    if args.command in ("auth-tag", "auth-verify") and not args.vectors:
        missing = [f for f in ("message", "key") if not getattr(args, f)]
        if args.command == "auth-verify" and not args.tag:
            missing.append("tag")
        if missing:
            print(f"error: --{' --'.join(missing)} required without --vectors",
                  file=sys.stderr)
            return 2
    try:
        cfg = load_config(args.config)
        return args.fn(args, cfg)
    except (QidentError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
