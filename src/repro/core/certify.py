"""End-to-end solve certificates: independent re-validation of results.

The pipelines already validate their own output (``check_ise``) and the LP
backend checks the feasibility of every optimum it reports; this module is
the *last* line of defense, applied to the fully-merged result exactly
as a caller would receive it.  A :class:`SolveCertificate` records:

* an exact content fingerprint of the instance that was solved,
* the independent validator's verdict, with honest violation details,
* the certified lower bound and the measured approximation gap against the
  paper's Theorem 1/12 guarantee,
* a digest of the solver telemetry (attempt log, stage timings) so a
  certificate can be matched to the solve that produced it,
* a sha256 self-checksum over the canonical payload, so a certificate that
  was tampered with (or torn in transit) is detectable.

Verified mode (``ISEConfig.verify``, ``ServiceConfig.verify_results``, the
CLI's ``--verify``) certifies every result before it escapes; a failed
certificate quarantines the result behind a typed
:class:`~repro.core.errors.CertificationError` instead of returning it.

``within_guarantee`` is deliberately informational, not part of
:attr:`SolveCertificate.ok`: the measured ratio compares against the
*certified lower bound*, which can sit below the true optimum, so a ratio
above the paper's factor is not by itself evidence of a wrong answer —
an infeasible schedule is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from .atomicio import checksum as _sha_checksum, content_key
from .errors import InvalidArtifactError
from .job import Instance
from .validate import validate_ise

# The result being certified is an ``ISEResult`` from ``repro.core.solver``,
# but that module imports this one, and the layer DAG places it *above* the
# foundation — so this module takes the result duck-typed and never names it.

__all__ = [
    "CERTIFICATE_VERSION",
    "GUARANTEE_FACTOR",
    "SolveCertificate",
    "certify_result",
    "instance_fingerprint",
]

CERTIFICATE_VERSION = 1

# Theorem 1 with the Section 3/4 pipelines: at most 12 * OPT calibrations
# (3 from Lemma 2 x 2 from rounding x 2 from mirroring on the long side;
# the short side and the union stay within the same combined factor).
GUARANTEE_FACTOR = 12.0

_DETAIL_LIMIT = 5


def instance_fingerprint(instance: Instance) -> str:
    """Exact content fingerprint of an instance (stable across processes)."""
    jobs_sig = tuple(
        (j.job_id, j.release, j.deadline, j.processing) for j in instance.jobs
    )
    return content_key(
        "ise-instance", jobs_sig, instance.machines, instance.calibration_length
    )


@dataclass(frozen=True)
class SolveCertificate:
    """An independently re-derived verdict on one :class:`ISEResult`.

    ``ok`` is the hard gate — it is True iff the independent validator
    found the schedule feasible.  Everything else is evidence: the bound
    and ratio quantify quality, the telemetry digest ties the certificate
    to one specific solve, and ``checksum`` covers the whole payload.
    """

    version: int
    instance: str
    valid: bool
    violations: int
    violation_detail: str
    calibrations: int
    machines_used: int
    lower_bound: float
    approximation_ratio: float
    guarantee_factor: float
    within_guarantee: bool
    degraded: bool
    telemetry_digest: str
    checksum: str

    @property
    def ok(self) -> bool:
        """True iff the result passed independent re-validation."""
        return self.valid

    def payload(self) -> dict[str, Any]:
        """The checksummed fields in canonical order (checksum excluded)."""
        return {
            "version": self.version,
            "instance": self.instance,
            "valid": self.valid,
            "violations": self.violations,
            "violation_detail": self.violation_detail,
            "calibrations": self.calibrations,
            "machines_used": self.machines_used,
            "lower_bound": self.lower_bound,
            "approximation_ratio": self.approximation_ratio,
            "guarantee_factor": self.guarantee_factor,
            "within_guarantee": self.within_guarantee,
            "degraded": self.degraded,
            "telemetry_digest": self.telemetry_digest,
        }

    def verify_checksum(self) -> bool:
        """True iff the stored self-checksum matches the payload."""
        return self.checksum == _payload_checksum(self.payload())

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (artifact envelopes, ``/solve`` responses)."""
        data = self.payload()
        data["checksum"] = self.checksum
        return data

    def summary(self) -> dict[str, Any]:
        """The compact form ``/solve`` responses and the CLI print."""
        return {
            "valid": self.valid,
            "violations": self.violations,
            "lower_bound": self.lower_bound,
            "approximation_ratio": self.approximation_ratio,
            "within_guarantee": self.within_guarantee,
            "checksum": self.checksum,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SolveCertificate":
        """Inverse of :meth:`to_dict`; verifies the embedded self-checksum."""
        try:
            cert = cls(
                version=int(payload["version"]),
                instance=str(payload["instance"]),
                valid=bool(payload["valid"]),
                violations=int(payload["violations"]),
                violation_detail=str(payload["violation_detail"]),
                calibrations=int(payload["calibrations"]),
                machines_used=int(payload["machines_used"]),
                lower_bound=float(payload["lower_bound"]),
                approximation_ratio=float(payload["approximation_ratio"]),
                guarantee_factor=float(payload["guarantee_factor"]),
                within_guarantee=bool(payload["within_guarantee"]),
                degraded=bool(payload["degraded"]),
                telemetry_digest=str(payload["telemetry_digest"]),
                checksum=str(payload["checksum"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidArtifactError(
                f"malformed solve certificate: {exc}"
            ) from exc
        if not cert.verify_checksum():
            raise InvalidArtifactError(
                "solve certificate checksum mismatch (tampered or torn)",
                field="checksum",
            )
        return cert

    def describe(self) -> str:
        """One-line human summary for logs and the CLI."""
        verdict = "VALID" if self.valid else f"INVALID ({self.violations} violations)"
        guarantee = "within" if self.within_guarantee else "above"
        return (
            f"certificate {verdict}: {self.calibrations} calibrations vs "
            f"lower bound {self.lower_bound:.3f} (ratio "
            f"{self.approximation_ratio:.3f}, {guarantee} the "
            f"{self.guarantee_factor:g}x guarantee)"
        )


def _payload_checksum(payload: Mapping[str, Any]) -> str:
    """sha256 self-checksum over the canonical JSON form of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return _sha_checksum(canonical)


def _telemetry_digest(result: Any) -> str:
    """Digest of the solve's telemetry (attempt log + stage timings)."""
    resilience = (
        result.resilience.to_dict() if result.resilience is not None else {}
    )
    canonical = json.dumps(
        {"resilience": resilience, "wall_times": dict(result.wall_times)},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return _sha_checksum(canonical)


def certify_result(
    instance: Instance,
    result: Any,
    *,
    overlapping_calibrations: bool = False,
    guarantee_factor: float = GUARANTEE_FACTOR,
) -> SolveCertificate:
    """Independently re-validate ``result`` and issue its certificate.

    This is a *re*-validation pass: it runs even when the solve already
    validated internally, because the certificate's value is precisely
    that it does not trust the solve path (a bit flip between the
    pipeline's check and the caller's hands is exactly what it catches).
    Issuing a certificate never raises on an invalid result — the
    certificate records the verdict; enforcement (quarantine) is the
    caller's job.
    """
    report = validate_ise(
        instance,
        result.schedule,
        allow_overlapping_calibrations=overlapping_calibrations,
    )
    ratio = result.approximation_ratio
    lb = result.lower_bound.best
    payload = {
        "version": CERTIFICATE_VERSION,
        "instance": instance_fingerprint(instance),
        "valid": report.ok,
        "violations": len(report.violations),
        "violation_detail": report.detail(limit=_DETAIL_LIMIT),
        "calibrations": result.num_calibrations,
        "machines_used": result.machines_used,
        "lower_bound": lb,
        "approximation_ratio": ratio,
        "guarantee_factor": guarantee_factor,
        "within_guarantee": ratio <= guarantee_factor,
        "degraded": result.degraded,
        "telemetry_digest": _telemetry_digest(result),
    }
    return SolveCertificate(checksum=_payload_checksum(payload), **payload)
