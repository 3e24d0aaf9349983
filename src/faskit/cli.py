"""Command-line front end.

Machine-readable JSON goes to stdout, a one-line human summary to stderr.
Exit codes: 0 success, 1 only for authentication denied (auth), 2 bad
configuration or parameters, 3 any other error, its traceback on stderr.
Files are written only to paths passed via --output / --transcript.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import secrets
import sys
import traceback

from . import simulator
from .algebra import (MALFORMED, PrimeField, get_group, group_names,
                      lagrange_coefficient, mod_inv)
from .authscore import (FusionPolicy, Modality, ModalityReading,
                        fuse_encrypted, fuse_local, gate, keypair_from_primes,
                        normalize_fused, phe_decrypt, phe_encrypt, phe_scale)
from .errors import ConfigError, FaskitError, ParameterError
from .fuzzyextractor import CodeParams, encode, fe_enroll, fe_reproduce
from .protocol import authenticate
from .sharing import Share, ThresholdParams, reconstruct, share_secret, \
    verify_share
from .simulator import ScenarioConfig, _Trial, run_scenario
from .thresholdsig import (combine, keygen_dealer, sign_round1,
                           sign_round2, verify)

_SEED_HELP = "reproducible demos only; without it keys come from the " \
    "OS CSPRNG"
# --weights and --scores list modalities in Modality's own order.
MODALITY_ORDER = list(Modality)


class _ScriptedRng:
    """Feeds predetermined draws into code expecting a random source."""

    def __init__(self, values):
        self._values = list(values)

    def randrange(self, *args):
        return self._values.pop(0)


def _rng(seed: int | None) -> random.Random:
    """random.Random(seed) for a reproducible demo; without a seed, keys
    and nonces come from the OS CSPRNG."""
    return secrets.SystemRandom() if seed is None else random.Random(seed)


def _emit(obj: dict, summary: str, output: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    if output:
        with open(output, "w") as handle:
            handle.write(text + "\n")
    sys.stdout.write(text + "\n")
    sys.stderr.write(summary + "\n")


def _cmd_keygen(args) -> int:
    group = get_group(args.group)
    out = {"group": group.to_json(), "name": args.group}
    summary = f"group {args.group}: |p|={group.p.bit_length()} bits"
    if args.n is None and args.t != 0:
        raise ConfigError(f"--t: {args.t} needs --n, which deals the shares")
    # Without --n nothing is dealt; a one-device sharing stands in, so
    # --group and --seed still meet the scenario's rules.
    _scenario(args, case=2, n=1 if args.n is None else args.n)
    if args.n is not None:
        params = ThresholdParams(t=args.t, n=args.n)
        rng = _rng(args.seed)
        pubkey, shares, commitments = keygen_dealer(params, group, rng)
        out.update({
            "t": params.t, "n": params.n,
            "public_key": format(pubkey.y, "x"),
            "shares": [s.to_json() for s in shares],
            "commitments": commitments.to_json(),
        })
        summary += f"; dealt {params.n} shares at threshold {params.t + 1}"
    _emit(out, summary, args.output)
    return 0


def _parse_floats(text: str) -> list:
    """At least one comma-separated number."""
    try:
        values = [float(x) for x in text.split(",") if x != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}")
    return values


def _parse_scores(text: str) -> list:
    """At least one comma-separated score, each in [0, 1]."""
    values = _parse_floats(text)
    if not all(0.0 <= v <= 1.0 for v in values):
        raise argparse.ArgumentTypeError(
            f"expected scores in [0, 1], got {text!r}")
    return values


def _scenario(args, **fields) -> ScenarioConfig:
    """The one-trial scenario the --t, --n, --group and --seed flags
    describe, with `fields` set over them; its rules check them, as in a
    scenario file."""
    fields = {"t": args.t, "n": args.n, **fields}
    return ScenarioConfig(group=args.group,
                          seed=0 if args.seed is None else args.seed,
                          trials=1, **fields)


def _setup_user(args) -> _Trial:
    """The user's world as `simulate` builds it: a seeded one is trial 0
    of the scenario the flags describe, run with that seed; without
    --seed every draw comes from the OS CSPRNG."""
    if len(args.weights) > len(MODALITY_ORDER):
        raise ParameterError(
            f"--weights: {len(args.weights)} values for "
            f"{len(MODALITY_ORDER)} modalities")
    config = _scenario(
        args, case=args.case, code_r=args.code_r, theta=args.theta,
        weights={m.value: w for m, w in zip(MODALITY_ORDER, args.weights)})
    return _Trial(config, _rng(args.seed))


def _cmd_enroll(args) -> int:
    trial = _setup_user(args)
    pd, dds = trial.pd, trial.dds
    out = {
        "user_id": pd.user_id,
        "case": args.case,
        "public_key": format(pd.pubkey.y, "x"),
        "commitments": pd.commitments.to_json(),
        "pd_state": pd.persistent_state(),
        "device_states": [dd.persistent_state() for dd in dds],
    }
    _emit(out, f"enrolled user1 under CASE {args.case} with {args.n} "
               "device(s)", args.output)
    return 0


def _cmd_auth(args) -> int:
    trial = _setup_user(args)
    pd, dds, sp = trial.pd, trial.dds, trial.sp
    policy = pd.policy
    scores = args.scores
    for dd in dds:
        modality = dd.modalities[0]
        dd.current_scores = {modality: scores[MODALITY_ORDER.index(modality)
                                              % len(scores)]}
    readings = [ModalityReading(dd.entity_id, m, score, 0)
                for dd in dds for m, score in dd.current_scores.items()]
    fused = fuse_local(readings, policy, 0)

    messages = authenticate(pd, dds, sp, now=0, rng=trial.rng_nonce)
    result = messages[-1]
    granted = bool(result.payload["granted"])
    out = {
        "granted": granted,
        "reason": result.payload["reason"],
        "fused_score": round(fused.value, 6),
        # Those before the provider's verdict, when it gave one.
        "messages": len(messages) - (result.sender == sp.sp_id),
    }
    verdict = "granted" if granted else \
        f"denied ({result.payload['reason']})"
    _emit(out, f"authentication {verdict}; fused score "
               f"{fused.value:.3f} vs theta {policy.theta}", args.output)
    return 0 if granted else 1


def _load_config(args) -> ScenarioConfig:
    """The --config scenario file, with --seed overriding its seed."""
    try:
        with open(args.config) as handle:
            obj = json.load(handle)
    except (OSError, *MALFORMED) as exc:   # unreadable, not UTF-8 or JSON
        raise ConfigError(f"--config: {exc}") from None
    if args.seed is not None and isinstance(obj, dict):
        obj["seed"] = args.seed
    return ScenarioConfig.from_json(obj)


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    with open(args.transcript, "w") if args.transcript \
            else contextlib.nullcontext() as transcript:
        report = run_scenario(config, transcript)
    _emit(report.to_json(), f"{report.trials} trial(s): {report.grants} "
          f"granted, digest {report.transcript_digest[:16]}...", args.output)
    return 0


def _cmd_rates(args) -> int:
    config = _load_config(args)
    try:
        rows = simulator.estimate_rates(config, args.sweep)
    except ConfigError as exc:   # a value the p_flip rule refuses
        raise ConfigError(f"--sweep: {exc}") from None
    _emit({"rows": rows}, f"swept {len(rows)} noise level(s)", args.output)
    return 0


def _kat_checks() -> list:
    """Every hand-computed known answer, executed."""
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except FaskitError:
            ok = False
        checks.append({"name": name, "pass": ok})

    kat = get_group("kat")
    f17 = PrimeField(17)

    check("mod_inv 15 mod 17 = 8", lambda: mod_inv(15, 17) == 8)
    check("mod_inv 4 mod 15 = 4", lambda: mod_inv(4, 15) == 4)
    check("lagrange {1,3} j=1 q=17 -> 10",
          lambda: lagrange_coefficient([1, 3], 1, f17) == 10)
    check("lagrange {2,3} j=3 q=11 -> 9",
          lambda: lagrange_coefficient([2, 3], 3, kat.field) == 9)

    # Shamir over q=17 with fixed coefficient 3: f(x) = 5 + 3x.
    def shamir_fixed():
        coeffs = [5, 3]
        vals = [(i, sum(c * i ** k for k, c in enumerate(coeffs)) % 17)
                for i in (1, 2, 3)]
        if vals != [(1, 8), (2, 11), (3, 14)]:
            return False
        return reconstruct([Share(1, 8), Share(3, 14)], f17) == 5
    check("Shamir f(x)=5+3x mod 17 -> (1,8),(2,11),(3,14); "
          "reconstruct -> 5", shamir_fixed)

    def feldman_kat():
        shares, comms = share_secret(7, ThresholdParams(t=1, n=3), kat,
                                     _ScriptedRng([4]))
        if comms.to_json() != ["d", "10"]:
            return False
        if not verify_share(Share(2, 4), comms, kat):
            return False
        return not verify_share(Share(2, 5), comms, kat)
    check("Feldman commitments [13,16] accept (2,4), reject (2,5)",
          feldman_kat)

    def schnorr_kat():
        stub = lambda R, y, message, group: 2
        rng = _ScriptedRng([7, 4])
        pubkey, shares, comms = keygen_dealer(
            ThresholdParams(t=1, n=3), kat, rng)
        if pubkey.y != 13:
            return False
        if [(s.index, s.value) for s in shares] != [(1, 0), (2, 4), (3, 8)]:
            return False
        k2, com2 = sign_round1(shares[1], kat, "kat", _ScriptedRng([3]))
        k3, com3 = sign_round1(shares[2], kat, "kat", _ScriptedRng([5]))
        if (com2.commitment, com3.commitment) != (8, 9):
            return False
        p2 = sign_round2(shares[1], k2, 2, [2, 3], kat.field, "kat")
        p3 = sign_round2(shares[2], k3, 2, [2, 3], kat.field, "kat")
        if (p2.s, p3.s) != (5, 6):
            return False
        sig = combine([com2, com3], [p2, p3], pubkey, b"challenge",
                      challenge_fn=stub)
        if (sig.R, sig.s) != (3, 0):
            return False
        return verify(pubkey, b"challenge", sig, challenge_fn=stub)
    check("threshold Schnorr KAT -> signature (R=3, s=0), verifies",
          schnorr_kat)

    def fe_kat():
        code = CodeParams(m=2, r=3)
        if encode("10", code) != "111000":
            return False
        helper = fe_enroll("10", "110100", code)
        if helper.bits != "001100":
            return False
        return fe_reproduce("110101", helper) == "10"
    check("fuzzy extractor: HD=001100, reproduce with 1 flip -> 10", fe_kat)

    def paillier_kat():
        kp = keypair_from_primes(3, 5)
        if (kp.public.n, kp.public.g) != (15, 16):
            return False
        c1 = phe_encrypt(2, kp.public, None, rho=2)
        c2 = phe_encrypt(3, kp.public, None, rho=4)
        if (c1, c2) != (158, 154):
            return False
        if c1 * c2 % 225 != 32 or phe_decrypt(32, kp) != 5:
            return False
        return phe_decrypt(phe_scale(c1, 3, kp.public), kp) == 6
    check("Paillier n=15: Enc(2;2)=158, Enc(3;4)=154, sum -> 5, "
          "scale -> 6", paillier_kat)

    def fusion_kat():
        policy = FusionPolicy(weights={Modality.GAIT: 0.5,
                                       Modality.LOCATION: 0.3,
                                       Modality.HEARTBEAT: 0.2})
        readings = [
            ModalityReading("dd1", Modality.GAIT, 0.8, 0),
            ModalityReading("dd2", Modality.LOCATION, 0.5, 0),
            ModalityReading("dd3", Modality.HEARTBEAT, 0.0, 0),
        ]
        score = fuse_local(readings, policy, 0)
        if abs(score.value - 0.55) > 1e-12:
            return False
        return not gate(score, policy)
    check("fusion (0.5,0.3,0.2)x(0.8,0.5,0.0) -> 0.55, gate denies at 0.7",
          fusion_kat)

    def fused_encrypted_kat():
        kp = keypair_from_primes(104729, 104723)
        rng = random.Random(7)
        cts = {Modality.GAIT: phe_encrypt(80, kp.public, rng),
               Modality.LOCATION: phe_encrypt(50, kp.public, rng),
               Modality.HEARTBEAT: phe_encrypt(0, kp.public, rng)}
        weights = {Modality.GAIT: 5, Modality.LOCATION: 3,
                   Modality.HEARTBEAT: 2}
        fused = fuse_encrypted(cts, weights, kp.public)
        total = phe_decrypt(fused, kp)
        if total != 550:
            return False
        return abs(normalize_fused(total, weights) - 0.55) < 1e-12
    check("encrypted fusion (5,3,2)x(80,50,0) -> 550 -> 0.55",
          fused_encrypted_kat)

    return checks


def _cmd_verify_kat(args) -> int:
    checks = _kat_checks()
    ok = all(c["pass"] for c in checks)
    _emit({"checks": checks, "all_pass": ok},
          f"{sum(c['pass'] for c in checks)}/{len(checks)} known-answer "
          "checks passed", args.output)
    return 0 if ok else 3


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError, which main reports like any
    other bad parameter."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="faskit",
        description="Frictionless multi-device authentication toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="also write the JSON result here")

    p = sub.add_parser("keygen", help="export group parameters and "
                                      "optionally deal a fresh sharing")
    p.add_argument("--group", default="sim", choices=group_names())
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    common(p)
    p.set_defaults(func=_cmd_keygen)

    for name, fn, help_text in (
            ("enroll", _cmd_enroll, "enrol a fresh user and dump state"),
            ("auth", _cmd_auth, "run one authentication end to end")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--case", type=int, default=2, choices=(1, 2, 3))
        p.add_argument("--t", type=int, default=1)
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--group", default="sim", choices=group_names())
        p.add_argument("--code-r", type=int, default=5)
        p.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
        p.add_argument("--theta", type=float, default=0.7)
        p.add_argument("--weights", type=_parse_floats,
                       default=[0.5, 0.3, 0.2],
                       help="comma-separated modality weights")
        if name == "auth":
            p.add_argument("--scores", type=_parse_scores,
                           default=[0.9, 0.9, 0.9],
                           help="comma-separated per-modality scores")
        common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("simulate", help="run a scenario file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--transcript", help="write the JSON-lines message log "
                                        "here")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("rates", help="sweep noise levels, report FRR/FAR")
    p.add_argument("--config", required=True)
    p.add_argument("--sweep", required=True, type=_parse_floats,
                   help="comma-separated p_flip values")
    p.add_argument("--seed", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("verify-kat", help="run all known-answer checks")
    common(p)
    p.set_defaults(func=_cmd_verify_kat)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:   # --help
        return 2 if exc.code not in (0, None) else 0
    except (ConfigError, ParameterError, OSError) as exc:
        _emit({"error": str(exc), "kind": "config"},
              f"error: {exc}", None)
        return 2
    except Exception as exc:
        _emit({"error": str(exc), "kind": "internal"},
              f"internal error: {exc}", None)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
