"""Outside-in spans around cloudsched's module boundaries.

Nothing under src/ is edited. A Tracer replaces public functions in the
namespace where their caller looks them up at call time (for example
`cloudsched.cli.assign`, which `cli` imported from `policies`), records one
span per call (name, start, end, parent), and puts the originals back on
`uninstall`. A target whose module or attribute no longer exists is listed
in `absent` rather than raising, so a refactor shows up in the trace
instead of breaking it.
"""

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

perf_counter = time.perf_counter


def _assign_name(args, kwargs) -> str:
    scenario = args[0] if args else kwargs.get("scenario")
    return f"policies.assign.{scenario.policy}"


def _execute_name(args, kwargs) -> str:
    mode = args[2] if len(args) > 2 else kwargs.get("mode")
    return f"engine.execute.{mode.value}"


# (module, attribute looked up at call time, span name or name function).
# `assign` dispatches through a dict captured at import, so its span is
# named after the argument's policy; `execute_plan` after its mode.
TARGETS: tuple[tuple[str, str, Union[str, Callable]], ...] = (
    ("cloudsched.cli", "load_scenario", "workload.load_scenario"),
    ("cloudsched.cli", "generate", "workload.generate"),
    ("cloudsched.cli", "assign", _assign_name),
    ("cloudsched.cli", "execute_plan", _execute_name),
    ("cloudsched.cli", "summarize", "metrics.summarize"),
    ("cloudsched.cli", "compare", "metrics.compare"),
    ("cloudsched.engine", "provision_vms", "engine.provision"),
    ("cloudsched.engine", "validate_plan", "model.validate_plan"),
    ("cloudsched.engine", "ps_finish_times", "engine.ps_finish_times"),
    ("cloudsched.workload", "validate_scenario", "model.validate_scenario"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]   # index into Tracer.spans
    op: int


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    op: int = 0
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _wrap(self, naming: Union[str, Callable], fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            name = naming if isinstance(naming, str) else naming(args, kwargs)
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        """Wrap every target that exists; list the ones that do not."""
        self.absent = []
        for module_name, attr, naming in TARGETS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(naming, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own
