import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faskit.authscore import (WEIGHT_SCALE, AuthScore, FusionPolicy, Modality,
                              ModalityReading, fuse_encrypted, fuse_local,
                              gate, keypair_from_primes, max_fused_plaintext,
                              modality_means, normalize_fused, phe_add,
                              phe_decrypt, phe_encrypt, phe_keygen,
                              phe_scale, quantize_score, weighted_mean)
from faskit.errors import ParameterError

G, L, H = Modality.GAIT, Modality.LOCATION, Modality.HEARTBEAT
C = Modality.CUSTOM


def policy_532(theta=0.7):
    return FusionPolicy(weights={G: 0.5, L: 0.3, H: 0.2}, theta=theta)


def readings(scores, now=0):
    return [ModalityReading(f"dd{i+1}", m, s, now)
            for i, (m, s) in enumerate(zip((G, L, H), scores))]


def test_fusion_known_answers():
    policy = policy_532()
    assert fuse_local(readings([1.0, 1.0, 1.0]), policy, 0).value == 1.0
    assert abs(fuse_local(readings([0.8, 0.5, 0.0]), policy, 0).value
               - 0.55) < 1e-12
    only_gait = [ModalityReading("dd1", G, 0.6, 0)]
    assert abs(fuse_local(only_gait, policy, 0).value - 0.6) < 1e-12


def test_fusion_drops_stale_readings():
    policy = policy_532()
    fresh = ModalityReading("dd1", G, 1.0, 5)
    stale = ModalityReading("dd2", L, 0.0, 0)
    score = fuse_local([fresh, stale], policy, now=11)
    assert score.value == 1.0
    assert score.contributing == frozenset({"dd1"})
    assert fuse_local([], policy, 0).value == 0.0


def test_fusion_averages_repeated_modalities():
    policy = policy_532()
    pair = [ModalityReading("dd1", G, 0.2, 0),
            ModalityReading("dd2", G, 0.8, 0)]
    assert abs(fuse_local(pair, policy, 0).value - 0.5) < 1e-12


def test_fusion_is_weight_scale_invariant():
    rng = random.Random(30)
    for _ in range(500):
        weights = {m: rng.uniform(0.01, 1.0) for m in (G, L, H)}
        scale = rng.uniform(0.1, 50.0)
        scores = [rng.random() for _ in range(3)]
        now = 0
        a = fuse_local(readings(scores), FusionPolicy(weights=weights),
                       now).value
        scaled = FusionPolicy(weights={m: w * scale
                                       for m, w in weights.items()})
        b = fuse_local(readings(scores), scaled, now).value
        assert abs(a - b) < 1e-9


def test_gate_known_answers():
    policy = policy_532()
    assert gate(AuthScore(1.0, frozenset(), "local"), policy)
    assert not gate(AuthScore(0.55, frozenset(), "local"), policy)
    assert gate(AuthScore(0.7, frozenset(), "local"), policy)  # tie passes


def test_gate_is_monotone_in_each_score():
    rng = random.Random(31)
    policy = policy_532()
    for _ in range(300):
        scores = [rng.random() for _ in range(3)]
        base = gate(fuse_local(readings(scores), policy, 0), policy)
        i = rng.randrange(3)
        raised = list(scores)
        raised[i] = min(1.0, raised[i] + rng.random() * (1 - raised[i]))
        after = gate(fuse_local(readings(raised), policy, 0), policy)
        assert after or not base


def test_policy_validation():
    with pytest.raises(ParameterError):
        FusionPolicy(weights={})
    with pytest.raises(ParameterError):
        FusionPolicy(weights={G: 0.0})
    with pytest.raises(ParameterError):
        FusionPolicy(weights={G: -0.1, L: 0.5})
    with pytest.raises(ParameterError):
        FusionPolicy(weights={G: 1.0}, theta=1.5)
    with pytest.raises(ParameterError):
        ModalityReading("dd1", G, 1.2, 0)


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), 1e308])
def test_policy_refuses_a_weight_the_cloud_path_cannot_scale(weight):
    # 1e308 is finite, but 1e308 * WEIGHT_SCALE is not.
    with pytest.raises(ParameterError, match="finite"):
        FusionPolicy(weights={G: weight, L: 0.5})


def test_policy_takes_an_int_weight_only_while_scaled_it_is_a_float():
    # An int weight scales to an exact int, however large; the fusion
    # later takes float() of it, which overflows from 2^1024 - 2^970 on.
    with pytest.raises(ParameterError, match="finite"):
        FusionPolicy(weights={G: 10 ** 400})
    top = (2 ** 1024 - 2 ** 970 - 1) // WEIGHT_SCALE
    assert math.isfinite(float(top * WEIGHT_SCALE))
    assert FusionPolicy(weights={G: top}).weights == {G: top}
    with pytest.raises(OverflowError):
        float((top + 1) * WEIGHT_SCALE)
    with pytest.raises(ParameterError, match="finite"):
        FusionPolicy(weights={G: top + 1})


@pytest.mark.parametrize("staleness_max", [-1, "3", True, 2.0])
def test_policy_refuses_a_bad_freshness_window(staleness_max):
    # A negative window would deny every reading; a bool is not an int.
    with pytest.raises(ParameterError, match="staleness_max"):
        FusionPolicy(weights={G: 1.0}, staleness_max=staleness_max)
    assert FusionPolicy(weights={G: 1.0}, staleness_max=0).staleness_max == 0


def test_fresh_reading_of_an_unweighted_modality_is_ignored():
    policy = FusionPolicy(weights={G: 1.0})
    rs = [ModalityReading("dd1", G, 0.6, 0), ModalityReading("dd2", L, 0.0, 0)]
    score = fuse_local(rs, policy, 0)
    assert score.value == 0.6
    assert score.contributing == frozenset({"dd1"})
    assert modality_means(rs, policy, 0) == {G: 0.6}


def test_weighted_mean_renormalizes_over_what_has_a_value_and_a_weight():
    weights = {G: 0.5, L: 0.3, H: 0.2}
    assert weighted_mean({G: 80, H: 20, C: 100}, weights) \
        == pytest.approx(44 / 0.7)
    assert weighted_mean({}, weights) == 0.0
    assert weighted_mean({C: 1.0}, weights) == 0.0


def test_weighted_mean_is_the_same_on_every_python():
    # Added term by term this is 80.89999999999999; builtin sum, which
    # compensates rounding from Python 3.12 on, gives 80.9 there. The
    # plain scoring service puts this value on the wire.
    weights = {G: 0.4, L: 0.3, H: 0.3}
    assert weighted_mean({G: 80, L: 81, H: 82}, weights) == 80.89999999999999


def test_quantization_rounds_half_up():
    assert quantize_score(0.0) == 0
    assert quantize_score(1.0) == 100
    assert quantize_score(0.554) == 55
    assert quantize_score(0.555) == 56
    assert quantize_score(0.005) == 1


def test_paillier_test_keypair_known_answer():
    kp = keypair_from_primes(3, 5)
    assert (kp.public.n, kp.public.g) == (15, 16)
    rng = random.Random(32)
    assert phe_decrypt(phe_encrypt(0, kp.public, rng), kp) == 0
    for m in range(15):
        assert phe_decrypt(phe_encrypt(m, kp.public, rng), kp) == m


def test_paillier_encryption_known_answers():
    kp = keypair_from_primes(3, 5)
    c1 = phe_encrypt(2, kp.public, None, rho=2)
    c2 = phe_encrypt(3, kp.public, None, rho=4)
    assert (c1, c2) == (158, 154)
    summed = phe_add(c1, c2, kp.public)
    assert summed == 32                  # 158*154 mod 225
    assert phe_decrypt(summed, kp) == 5
    assert phe_decrypt(phe_scale(c1, 3, kp.public), kp) == 6
    rng = random.Random(33)
    zero = phe_encrypt(0, kp.public, rng)
    assert phe_decrypt(phe_add(c1, zero, kp.public), kp) == 2


def test_paillier_homomorphism_with_test_keypair():
    kp = keypair_from_primes(3, 5)
    rng = random.Random(34)
    for _ in range(1000):
        a, b, k = rng.randrange(15), rng.randrange(15), rng.randrange(30)
        ca, cb = phe_encrypt(a, kp.public, rng), phe_encrypt(b, kp.public,
                                                             rng)
        assert phe_decrypt(phe_add(ca, cb, kp.public), kp) == (a + b) % 15
        assert phe_decrypt(phe_scale(ca, k, kp.public), kp) == k * a % 15


def test_paillier_keygen_and_bounds():
    rng = random.Random(35)
    kp = phe_keygen(64, rng)
    assert kp.public.g == kp.public.n + 1
    for _ in range(20):
        m = rng.randrange(kp.public.n)
        assert phe_decrypt(phe_encrypt(m, kp.public, rng), kp) == m
    with pytest.raises(ParameterError):
        phe_keygen(8, rng)
    with pytest.raises(ParameterError):
        phe_encrypt(kp.public.n, kp.public, rng)
    with pytest.raises(ParameterError):
        phe_encrypt(1, keypair_from_primes(3, 5).public, None, rho=3)


KP15 = keypair_from_primes(3, 5)

# Each refusal: the call, and what its ParameterError says.
PAILLIER_REFUSALS = {
    "primes-equal": (lambda: keypair_from_primes(5, 5), "differ"),
    "factor-composite": (lambda: keypair_from_primes(9, 7), "prime"),
    "scale-negative": (lambda: phe_scale(2, -1, KP15.public), "negative"),
    "decrypt-negative": (lambda: phe_decrypt(-1, KP15), "out of range"),
    "decrypt-n-squared": (lambda: phe_decrypt(225, KP15), "out of range"),
    "normalize-zero-weights": (lambda: normalize_fused(5, {G: 0}), "zero"),
    "normalize-no-weights": (lambda: normalize_fused(5, {}), "zero"),
}


@pytest.mark.parametrize("name", sorted(PAILLIER_REFUSALS))
def test_paillier_refuses_bad_input(name):
    call, reason = PAILLIER_REFUSALS[name]
    with pytest.raises(ParameterError, match=reason):
        call()


def test_paillier_keygen_with_odd_bits_skips_q_equal_to_2p_plus_1():
    # At 17 bits, seed 85 first draws p = 179 and q = 359 = 2p + 1, for
    # which gcd(n, (p-1)(q-1)) = p; keygen must draw another q.
    rng = random.Random(85)
    kp = phe_keygen(17, rng)
    assert (kp.p, kp.q) != (179, 359)
    assert math.gcd(kp.public.n, (kp.p - 1) * (kp.q - 1)) == 1
    for m in (0, 1, kp.public.n - 1):
        assert phe_decrypt(phe_encrypt(m, kp.public, rng), kp) == m


def test_fuse_encrypted_known_answers():
    kp = keypair_from_primes(104729, 104723)
    rng = random.Random(36)
    weights = {G: 5, L: 3, H: 2}

    def enc(values):
        return {m: phe_encrypt(v, kp.public, rng)
                for m, v in zip((G, L, H), values)}

    fused = fuse_encrypted(enc([80, 50, 0]), weights, kp.public)
    assert phe_decrypt(fused, kp) == 550
    assert abs(normalize_fused(550, weights) - 0.55) < 1e-12
    fused = fuse_encrypted(enc([100, 100, 100]), weights, kp.public)
    assert phe_decrypt(fused, kp) == 100 * sum(weights.values())
    single = fuse_encrypted({G: phe_encrypt(73, kp.public, rng)}, {G: 1},
                            kp.public)
    assert phe_decrypt(single, kp) == 73
    with pytest.raises(ParameterError):
        fuse_encrypted(enc([1, 2, 3]), {}, kp.public)


def test_cloud_and_local_fusion_agree():
    # The full gateway-side pipeline: per-modality means, quantization,
    # encryption, homomorphic weighted sum, decrypt, normalize. Must
    # stay within the 0.01 quantization error of plain local fusion.
    kp = keypair_from_primes(104729, 104723)
    rng = random.Random(37)
    for _ in range(500):
        weights = {m: rng.uniform(0.1, 1.0) for m in (G, L, H)}
        policy = FusionPolicy(weights=weights)
        present = rng.sample((G, L, H), rng.randrange(1, 4))
        rs = [ModalityReading(f"dd{i}", m, rng.random(), 0)
              for i, m in enumerate(present)]
        local = fuse_local(rs, policy, 0).value
        means = modality_means(rs, policy, 0)
        cts = {m: phe_encrypt(quantize_score(v), kp.public, rng)
               for m, v in means.items()}
        int_weights = policy.integer_weights(means.keys())
        fused = fuse_encrypted(cts, int_weights, kp.public)
        cloud = normalize_fused(phe_decrypt(fused, kp), int_weights)
        assert abs(cloud - local) <= 0.01


@functools.lru_cache(maxsize=None)
def fusion_key(bits):
    return phe_keygen(bits, random.Random(bits)).public


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(bits=st.sampled_from([16, 64, 1024]), data=st.data())
def test_fuse_encrypted_equals_the_product_of_powers(bits, data):
    # One simultaneous exponentiation must give the product of one pow
    # per modality, for 1-4 modalities, any c in [0, n^2) and weights
    # from 0 to WEIGHT_SCALE (one of them positive). A weight for a
    # modality with no ciphertext is ignored.
    public = fusion_key(bits)
    modalities = data.draw(st.lists(st.sampled_from((G, L, H, C)),
                                    min_size=1, max_size=4, unique=True))
    cts = {m: data.draw(st.integers(0, public.n_sq - 1))
           for m in modalities}
    weight = st.one_of(st.sampled_from([0, 1, WEIGHT_SCALE]),
                       st.integers(0, WEIGHT_SCALE))
    weights = {m: data.draw(weight) for m in modalities}
    if sum(weights.values()) == 0:
        weights[modalities[0]] = WEIGHT_SCALE
    absent = [m for m in (G, L, H, C) if m not in cts]
    if absent and data.draw(st.booleans()):
        weights[absent[0]] = data.draw(weight)
    expected = 1
    for m, c in cts.items():
        expected = expected * pow(c, weights[m], public.n_sq) % public.n_sq
    assert fuse_encrypted(cts, weights, public) == expected


def test_fuse_encrypted_rejects_zero_and_negative_weights():
    public = fusion_key(64)
    cts = {G: 2, L: 3}
    for weights in ({G: 0, L: 0}, {H: 5}, {G: 5, L: -1}, {G: -1}):
        with pytest.raises(ParameterError):
            fuse_encrypted(cts, weights, public)


def test_max_fused_plaintext_is_the_all_perfect_weighted_sum():
    # Every modality scoring 100 fuses to SCORE_SCALE * sum(w): 10^8 with
    # weights summing to 1.
    policy = FusionPolicy(weights={Modality.GAIT: 0.4, Modality.LOCATION: 0.3,
                                   Modality.HEARTBEAT: 0.3})
    weights = policy.integer_weights()
    assert max_fused_plaintext(policy) == 10 ** 8 \
        == sum(w * quantize_score(1.0) for w in weights.values())
