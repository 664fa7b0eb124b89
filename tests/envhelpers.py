"""One tool's share of an environment, built as a delta of its own: the
per-tool fold that the area's one-pass builder is compared against."""

from scram.runtime import EnvDelta


def runtime_contribution(rt) -> EnvDelta:
    """A resolved tool's Runtime_path prepends; its other bindings stay
    build-time and are not exported at runtime."""
    delta = EnvDelta()
    for name, value in rt.runtime_entries:
        delta.prepend(name, value)
    return delta


def build_contribution(rt) -> EnvDelta:
    """Every other binding of a resolved tool as a plain setting, plus its
    runtime prepends."""
    delta = EnvDelta()
    runtime_names = {name for name, _ in rt.runtime_entries}
    for name, value in rt.bindings.items():
        if name not in runtime_names:
            delta.set(name, value)
    for name, value in rt.runtime_entries:
        delta.prepend(name, value)
    return delta
