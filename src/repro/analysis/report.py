"""Report formats for the determinism lint.

:mod:`repro.analysis.lint` findings -- ``path``, ``line``, ``col``,
``rule_id``, ``message`` -- render here as:

* ``json``  -- a stable machine-readable envelope for scripting.
* ``sarif`` -- SARIF 2.1.0, the interchange format code-scanning UIs
  ingest (the CI ``lint`` job uploads it as an artifact).

Both carry a fingerprint hashing ``path|rule_id|message`` rather than
line numbers, so a consumer tracking findings across commits is not
churned by unrelated edits that shift one up or down.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional, Sequence, Tuple

__all__ = [
    "fingerprint",
    "render_json",
    "render_sarif",
]

#: SARIF schema pinned so consumers can validate.
_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                 "master/Schemata/sarif-schema-2.1.0.json")


def fingerprint(finding) -> str:
    """Stable identity of a finding across unrelated line shifts."""
    payload = f"{finding.path}|{finding.rule_id}|{finding.message}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _finding_dict(finding) -> dict:
    return {
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "rule_id": finding.rule_id,
        "message": finding.message,
        "fingerprint": fingerprint(finding),
    }


def render_json(findings: Sequence, tool: str) -> str:
    """Findings as a JSON document (one envelope, stable key order)."""
    document = {
        "tool": tool,
        "finding_count": len(findings),
        "findings": [_finding_dict(f) for f in findings],
    }
    return json.dumps(document, indent=2, sort_keys=False) + "\n"


def render_sarif(findings: Sequence, tool: str,
                 rule_meta: Optional[Dict[str, Tuple[str, str]]] = None) \
        -> str:
    """Findings as a SARIF 2.1.0 log.

    ``rule_meta`` maps rule id -> ``(slug, summary)`` and populates the
    driver's rule table; rules referenced by findings but absent from
    the table are still valid SARIF (the ``ruleId`` stands alone).
    """
    rules = []
    for rule_id in sorted(rule_meta or {}):
        slug, summary = (rule_meta or {})[rule_id]
        rules.append({
            "id": rule_id,
            "name": slug,
            "shortDescription": {"text": summary},
        })
    results = []
    for finding in findings:
        results.append({
            "ruleId": finding.rule_id,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": finding.col + 1,
                    },
                },
            }],
            "partialFingerprints": {"reproAnalysis/v1": fingerprint(finding)},
        })
    log = {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": tool,
                "rules": rules,
            }},
            "results": results,
        }],
    }
    return json.dumps(log, indent=2) + "\n"
