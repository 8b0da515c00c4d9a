"""Viewer session generator.

Drives booted settops through realistic evenings of use: channel
changes, movie opens with Zipf-distributed title popularity (a few hits
absorb most opens, which is what makes recovery storms and MDS load
imbalance interesting), shopping browses, and game rounds.  Sessions
record per-operation latencies so experiments can report response-time
distributions against the paper's half-second expectation (section 9.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.sim.rand import SeededRandom


@dataclass
class SessionStats:
    opens: int = 0
    open_failures: int = 0
    open_latencies: List[float] = field(default_factory=list)
    tunes: int = 0
    tune_latencies: List[float] = field(default_factory=list)
    orders: int = 0
    game_rounds: int = 0
    watch_seconds: float = 0.0
    interruptions: int = 0
    # operations answered by a degraded path (low-bitrate catalog,
    # cached menu) instead of failing -- the overload success metric.
    degraded: int = 0

    def merge(self, other: "SessionStats") -> None:
        self.opens += other.opens
        self.open_failures += other.open_failures
        self.open_latencies.extend(other.open_latencies)
        self.tunes += other.tunes
        self.tune_latencies.extend(other.tune_latencies)
        self.orders += other.orders
        self.game_rounds += other.game_rounds
        self.watch_seconds += other.watch_seconds
        self.interruptions += other.interruptions
        self.degraded += other.degraded


class ViewerSession:
    """One subscriber's evening, driven against a booted settop."""

    def __init__(self, cluster, settop_kernel, rng: SeededRandom,
                 titles: Optional[List[str]] = None, zipf_skew: float = 1.1):
        self.cluster = cluster
        self.stk = settop_kernel
        self.rng = rng
        self.titles = titles or self._default_titles()
        self.zipf_skew = zipf_skew
        self.stats = SessionStats()

    def _default_titles(self) -> List[str]:
        from repro.cluster.media import DEFAULT_MOVIES
        return sorted(DEFAULT_MOVIES)

    def pick_title(self) -> str:
        return self.titles[self.rng.zipf_index(len(self.titles),
                                               self.zipf_skew)]

    async def run(self, duration: float) -> SessionStats:
        kernel = self.cluster.kernel
        end = kernel.now + duration
        while kernel.now < end:
            activity = self.rng.random()
            if activity < 0.55:
                await self._watch_movie(end)
            elif activity < 0.75:
                await self._shop()
            elif activity < 0.9:
                await self._game()
            else:
                await kernel.sleep(self.rng.uniform(5.0, 30.0))  # idle TV
        return self.stats

    async def _tune(self, channel) -> Optional[object]:
        am = self.stk.app_manager
        if am is None:
            return None
        kernel = self.cluster.kernel
        t0 = kernel.now
        before = am.last_tune
        try:
            await am.tune(channel)
        except Exception:  # noqa: BLE001 - the service may be failing over
            return None
        if am.last_tune is not None and am.last_tune is not before:
            # An actual channel change (not a no-op re-tune).
            self.stats.tunes += 1
            self.stats.tune_latencies.append(kernel.now - t0)
        return am.current_app

    async def _watch_movie(self, end: float) -> None:
        kernel = self.cluster.kernel
        app = await self._tune(5)
        if app is None or app.name != "vod":
            return
        title = self.pick_title()
        t0 = kernel.now
        interruptions_before = len(app.interruptions)
        try:
            mode = await app.play(title)
        except Exception:  # noqa: BLE001 - open failed (overload/fail-over)
            self.stats.open_failures += 1
            await kernel.sleep(5.0)
            return
        if mode == "degraded":
            # The delivery path shed us but the app kept a screen up;
            # browse the degraded catalog briefly instead of watching.
            self.stats.degraded += 1
            await kernel.sleep(self.rng.uniform(2.0, 10.0))
            return
        self.stats.opens += 1
        self.stats.open_latencies.append(kernel.now - t0)
        watch_for = min(self.rng.uniform(30.0, 180.0), max(end - kernel.now, 1))
        t_watch = kernel.now
        await kernel.sleep(watch_for)
        self.stats.watch_seconds += kernel.now - t_watch
        self.stats.interruptions += (len(app.interruptions)
                                     - interruptions_before)
        if not app.finished:
            await app.stop()

    async def _shop(self) -> None:
        from repro.ocs.exceptions import DeadlineExceeded, ServiceUnavailable
        kernel = self.cluster.kernel
        app = await self._tune(6)
        if app is None or app.name != "shopping":
            return
        try:
            catalog = await app.browse()
            await kernel.sleep(self.rng.uniform(5.0, 20.0))  # browsing
            if catalog and self.rng.random() < 0.4:
                item = sorted(catalog)[self.rng.randint(0, len(catalog) - 1)]
                await app.buy(item)
                self.stats.orders += 1
        except (ServiceUnavailable, DeadlineExceeded):
            # The shop is shedding (or out of budget): fall back to the
            # navigator's cached menu so the viewer still sees a screen.
            nav = await self._tune("navigator")
            if nav is not None and hasattr(nav, "menu"):
                await nav.menu()
                self.stats.degraded += 1
            await kernel.sleep(2.0)
        except Exception:  # noqa: BLE001
            await kernel.sleep(2.0)

    async def _game(self) -> None:
        kernel = self.cluster.kernel
        app = await self._tune(7)
        if app is None or app.name != "game":
            return
        for _round in range(self.rng.randint(2, 6)):
            try:
                await app.play_round(self.rng.randint(1, 100))
                self.stats.game_rounds += 1
            except Exception:  # noqa: BLE001
                break
            await kernel.sleep(self.rng.uniform(2.0, 8.0))


def run_viewers(cluster, settop_kernels, duration: float,
                seed: int = 0) -> SessionStats:
    """Run one session per settop concurrently; return merged stats."""
    rng = SeededRandom(seed)
    sessions = [ViewerSession(cluster, stk, rng.stream(f"viewer-{i}"))
                for i, stk in enumerate(settop_kernels)]
    tasks = [cluster.kernel.create_task(s.run(duration),
                                        name=f"viewer-{i}")
             for i, s in enumerate(sessions)]
    cluster.run_for(duration + 60.0)
    total = SessionStats()
    for session in sessions:
        total.merge(session.stats)
    return total
