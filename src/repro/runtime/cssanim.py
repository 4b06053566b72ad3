"""CSS animations and the ``getComputedStyle`` clock.

Schwarz et al. [12] showed a CSS animation's observable progress is a
timer: script reads ``getComputedStyle(el).left`` mid-animation and learns
elapsed time at compositor precision.  The runtime models an animation
timeline driven by a (policy-filtered) clock; reading computed style samples
that timeline, so clock defenses and JSKernel's kernel clock interpose in
the natural place.
"""

from __future__ import annotations

from typing import List

from ..errors import SimulationError
from .clock import PerformanceClock
from .dom import Element

#: Cost of one getComputedStyle call.
COMPUTED_STYLE_COST = 2_500


class CSSAnimation:
    """One running animation on an element."""

    def __init__(
        self,
        element: Element,
        prop: str,
        from_value: float,
        to_value: float,
        duration_ms: float,
        start_ms: float,
    ):
        self.element = element
        self.prop = prop
        self.from_value = from_value
        self.to_value = to_value
        self.duration_ms = duration_ms
        self.start_ms = start_ms
        self.cancelled = False

    def value_at(self, now_ms: float) -> float:
        """Linear interpolation of the animated property at ``now_ms``."""
        if self.duration_ms <= 0:
            return self.to_value
        t = (now_ms - self.start_ms) / self.duration_ms
        t = max(0.0, min(1.0, t))
        return self.from_value + (self.to_value - self.from_value) * t

    def finished(self, now_ms: float) -> bool:
        """True when the animation has run to completion."""
        return self.cancelled or now_ms >= self.start_ms + self.duration_ms


class AnimationTimeline:
    """All animations on a page, sampled through one clock.

    The clock is the interposition point: legacy pages get the browser's
    quantised clock, Fuzzyfox a fuzzy one, and JSKernel swaps in its kernel
    logical clock so sampled progress is deterministic.
    """

    def __init__(self, clock: PerformanceClock):
        self.clock = clock
        self._animations: List[CSSAnimation] = []

    def animate(
        self,
        element: Element,
        prop: str = "left",
        from_value: float = 0.0,
        to_value: float = 1000.0,
        duration_ms: float = 10_000.0,
    ) -> CSSAnimation:
        """Start a linear animation (``element.style.animation = ...``)."""
        start_ms = self.clock.now()
        animation = CSSAnimation(element, prop, from_value, to_value, duration_ms, start_ms)
        self._animations.append(animation)
        element.document.mark_dirty()
        return animation

    def cancel(self, animation: CSSAnimation) -> None:
        """Stop an animation (:meth:`any_running` drops it from the list)."""
        animation.cancelled = True

    def get_computed_style(self, element: Element, prop: str) -> float:
        """``getComputedStyle(el)[prop]`` — samples the animation clock."""
        clock = self.clock
        clock.sim.consume(COMPUTED_STYLE_COST)
        now_ms = clock.now()
        for animation in self._animations:
            if animation.element is element and animation.prop == prop and not animation.cancelled:
                return animation.value_at(now_ms)
        value = element.style.get(prop)
        if value is None:
            return 0.0
        try:
            return float(str(value).replace("px", ""))
        except ValueError:
            raise SimulationError(f"non-numeric computed style {prop}={value!r}")

    def any_running(self) -> bool:
        """Renderer driver hook: keep producing frames while animating."""
        now_ms = self.clock.now()
        running = [a for a in self._animations if not a.finished(now_ms)]
        self._animations = running
        return bool(running)
