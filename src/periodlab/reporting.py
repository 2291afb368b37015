"""Structured check reports shared by the rule engine and the CLI.

A report is a flat list of named checks, each carrying a verdict and a
traceability tag naming the rule or oracle it instantiates, plus an
optional oracle-agreement flag.  The exit code is a total function of the
report contents: parse failures map to 2, catalog failures to 3, oracle
disagreement to 4, any other non-pass to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str

PASS = "pass"
FAIL = "fail"
ERROR = "error"

_VERDICTS = (PASS, FAIL, ERROR)
_JSON_LITERALS = {None: "null", True: "true", False: "false"}

# check names with dedicated exit codes
PARSE_CHECK = "parse"
CATALOG_CHECK = "catalog"


@dataclass
class CheckResult:
    """One named check: verdict in {pass, fail, error} plus a rule tag."""

    name: str
    verdict: str
    theorem_tag: str
    details: str = ""

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "theorem_tag": self.theorem_tag,
            "details": self.details,
        }


@dataclass
class Report:
    """Outcome of a command or a conjecture instance."""

    input: str
    checks: list[CheckResult] = field(default_factory=list)
    oracle_agreement: bool | None = None

    def add(self, name: str, verdict: str, theorem_tag: str,
            details: str = "") -> CheckResult:
        check = CheckResult(name, verdict, theorem_tag, details)
        self.checks.append(check)
        return check

    def add_outcome(self, name: str, ok: bool, theorem_tag: str,
                    details: str = "") -> CheckResult:
        return self.add(name, PASS if ok else FAIL, theorem_tag, details)

    @property
    def all_pass(self) -> bool:
        return all(c.verdict == PASS for c in self.checks)

    @property
    def exit_code(self) -> int:
        for check in self.checks:
            if check.name == PARSE_CHECK and check.verdict == ERROR:
                return 2
        for check in self.checks:
            if check.name == CATALOG_CHECK and check.verdict == ERROR:
                return 3
        if self.oracle_agreement is False:
            return 4
        if not self.all_pass:
            return 1
        return 0

    def to_dict(self) -> dict:
        return {
            "input": self.input,
            "checks": [c.to_dict() for c in self.checks],
            "oracle_agreement": self.oracle_agreement,
            "exit_code": self.exit_code,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2)``, byte for byte.

        The schema is fixed, so the text is written directly; every string
        goes through the C function ``json.dumps`` escapes with, so the
        output is ASCII.  (With an indent, ``json.dumps`` itself runs the
        pure-Python encoder.)
        """
        checks = ",\n".join(
            f'    {{\n      "name": {_json_str(c.name)},\n'
            f'      "verdict": {_json_str(c.verdict)},\n'
            f'      "theorem_tag": {_json_str(c.theorem_tag)},\n'
            f'      "details": {_json_str(c.details)}\n    }}'
            for c in self.checks)
        if checks:
            checks = f"[\n{checks}\n  ]"
        return (f'{{\n  "input": {_json_str(self.input)},\n'
                f'  "checks": {checks or "[]"},\n'
                f'  "oracle_agreement": '
                f'{_JSON_LITERALS[self.oracle_agreement]},\n'
                f'  "exit_code": {self.exit_code}\n}}')

    def render(self) -> str:
        lines = [f"input: {self.input}"]
        for c in self.checks:
            line = f"  [{c.verdict.upper():5}] {c.name}"
            if c.details:
                line += f": {c.details}"
            line += f"  ({c.theorem_tag})"
            lines.append(line)
        if self.oracle_agreement is not None:
            lines.append(f"oracle agreement: {self.oracle_agreement}")
        lines.append(f"exit code: {self.exit_code}")
        return "\n".join(lines)
