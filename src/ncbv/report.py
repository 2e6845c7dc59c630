"""Pass/fail reports shared by the verification suites and the CLI."""

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    name: str
    passed: bool
    scale: str
    counterexample: str | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "scale": self.scale,
            "counterexample": self.counterexample,
        }


def check_report(name: str, scale: str, counterexamples) -> CheckReport:
    """Fail at the first string ``counterexamples`` yields, without
    advancing it further; pass if it yields none."""
    counterexample = next(iter(counterexamples), None)
    return CheckReport(name, counterexample is None, scale, counterexample)
