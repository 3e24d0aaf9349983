"""Frictionless multi-device authentication toolkit.

Collaborating personal devices jointly sign a service provider's
challenge with a threshold Schnorr scheme over Shamir/Feldman key shares,
gated by a fused multi-device authentication score; shares can be
regenerated on demand from noisy sensor templates via a code-offset
fuzzy commitment. A deterministic simulator drives genuine and
adversarial end-to-end scenarios.
"""

from .algebra import (GroupParams, PrimeField, get_group, group_names,
                      lagrange_coefficient, mod_inv)
from .authscore import (AuthScore, FusionPolicy, Modality, ModalityReading,
                        PheKeypair, PhePublicKey, fuse_encrypted,
                        fuse_local, gate, phe_add, phe_decrypt, phe_encrypt,
                        phe_keygen, phe_scale, quantize_score)
from .errors import (ConfigError, CorruptedShareError, FaskitError,
                     InsufficientSharesError, InvalidPartialError,
                     NondeterminismError, NonInvertibleError,
                     ParameterError, RegistrationError, SessionError)
from .fuzzyextractor import (CodeParams, HelperData, decode, encode,
                             fe_enroll, fe_reproduce, bits_to_scalar,
                             scalar_to_bits)
from .protocol import (Case, CaseStrategy, DumbDevice, FaspService, Message,
                       MessageType, PersonalDevice, RegistrationRecord,
                       ServiceProvider, authenticate, conclude, enroll,
                       pd_run_authentication, request_challenge,
                       signing_message_bytes)
from .sharing import (FeldmanCommitments, Share, ThresholdParams,
                      reconstruct, share_secret, verify_share)
from .simulator import (ScenarioConfig, SimReport, estimate_rates,
                        replay_transcript, run_scenario,
                        share_recovery_failure_rate)
from .thresholdsig import (DeviceSigner, GroupPublicKey, KeyShare,
                           NonceCommitment, PartialSignature, Signature,
                           combine, compute_challenge_scalar, keygen_dealer,
                           sign_round1, sign_round2, verify)

__version__ = "0.1.0"
