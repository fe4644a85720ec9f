"""MAP search by simulated annealing and Metropolis sampling over knot paths.

Both routines walk the same state space: the K+1 knots of a piecewise
geodesic path.  A knot update proposes a heat-kernel step from the knot's
current value; the heat kernel is symmetric in its arguments, so plain
Metropolis acceptance applies.  The annealer scales the proposal time and the
acceptance temperature down a geometric schedule, the sampler keeps both
fixed.

Under the chain-structured prior, knot k meets only knots k-1 and k+1 and the
observations in the two adjacent intervals, so given the odd knots the even
knots are conditionally independent, and the other way round.  Updates
therefore run in two colours: all even knots, then all odd knots, and so on.
Each run of one colour is scored in one vectorized pass, one kernel call
over its prior steps and its observations at every noise time, and decided
by one vectorized Metropolis test, which is the same chain as updating its
knots one at a time (systematic-scan Metropolis-within-Gibbs).  Counts are per knot
update: a temperature level makes exactly steps_per_temperature updates and a
chain exactly `iterations`; a colour run that would cross a level or the
burn-in boundary is cut there and resumes after it.  A thinning point splits
only the draws of a run, not its scoring: the run's proposals and uniforms
are drawn piece by piece, in the order separate runs would draw them, and
the stored sample is the knots with the accepts before that point applied.

Per-term values are cached and rewritten on acceptance (never accumulated as
running deltas), and the reported totals are full sums of the cached terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from bmreg.data import Dataset
from bmreg.manifolds import Manifold
from bmreg.paths import (
    PiecewiseGeodesicPath, PriorSpec, is_count, sample_prior_path, segment_points, segment_positions,
)
from bmreg.posterior import SigmaMode

# observations within this distance of a knot time vote for its initial value
INIT_WINDOW = 0.05
# heat-kernel time of the kernel-density score used to pick the window mode
INIT_DENSITY_TIME = 0.05
# fine grid used by the continuous-limit variant
K_FINE = 200
# annealing-trace points kept in a fit's JSON
_MAX_TRACE = 256
# colour-block index plans kept per engine
_MAX_PLANS = 512


def _check_counts(config, *names: str) -> None:
    """ValueError naming the first of a config's count fields that is not an integer (a bool is not)."""
    for name in names:
        value = getattr(config, name)
        if not is_count(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class AnnealConfig:
    """Geometric cooling schedule for the simulated annealer."""

    initial_temperature: float = 1.0
    cooling_factor: float = 0.95
    steps_per_temperature: int = 200
    temperature_floor: float = 1e-3
    proposal_time: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.initial_temperature < math.inf:
            raise ValueError("initial_temperature must be positive and finite")
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling_factor must be in (0, 1)")
        _check_counts(self, "steps_per_temperature")
        if self.steps_per_temperature < 0:
            raise ValueError("steps_per_temperature must be nonnegative")
        if not 0.0 < self.temperature_floor < math.inf:
            raise ValueError("temperature_floor must be positive and finite")
        if self.temperature_floor > self.initial_temperature:
            raise ValueError("temperature_floor must not exceed initial_temperature")
        if not 0.0 < self.proposal_time < math.inf:
            raise ValueError("proposal_time must be positive and finite")


@dataclass(frozen=True)
class McmcConfig:
    """Fixed-temperature Metropolis chain settings."""

    iterations: int
    burn_in: int
    thinning: int
    proposal_time: float

    def __post_init__(self):
        _check_counts(self, "iterations", "burn_in", "thinning")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must lie in [0, iterations)")
        if self.thinning < 1:
            raise ValueError("thinning must be positive")
        if self.thinning > self.iterations - self.burn_in:
            raise ValueError("thinning must not exceed iterations - burn_in, or no sample is stored")
        if not 0.0 < self.proposal_time < math.inf:
            raise ValueError("proposal_time must be positive and finite")


@dataclass
class FitResult:
    """Best path found by an annealing run, with its search trace.

    trace holds (updates made, log posterior) at the start and after each
    colour block, so its update counts strictly increase.
    """

    path: PiecewiseGeodesicPath
    best_log_posterior: float
    trace: list = field(repr=False)
    acceptance_rate: float

    def to_dict(self) -> dict:
        # at most _MAX_TRACE update counts, evenly spaced; each reads the block that made it
        ends = np.array([i for i, _ in self.trace])
        # the rounded grid is sorted, so dropping adjacent repeats is np.unique (which imports numpy.ma)
        grid = np.linspace(0, ends[-1], _MAX_TRACE).round().astype(int)
        keep = grid[np.diff(grid, prepend=-1) != 0]
        blocks = np.searchsorted(ends, keep)
        return {
            "path": self.path.to_dict(),
            "best_log_posterior": float(self.best_log_posterior),
            "acceptance_rate": float(self.acceptance_rate),
            "trace_subsampled": [[int(i), float(self.trace[j][1])] for i, j in zip(keep, blocks)],
        }


@dataclass
class SampleResult:
    """Thinned post-burn-in Metropolis states: knots holds one (K+1, *point_shape) row per
    stored sample, an (S, K+1, *point_shape) array in chain order."""

    knots: np.ndarray
    acceptance_rate: float


def init_state(data: Dataset, K: int, m: Manifold) -> PiecewiseGeodesicPath:
    """Windowed-mode initial path: each knot gets the local kernel-density mode.

    For knot time kh the candidates are the observed points with
    |t_i - kh| <= INIT_WINDOW, row k of one (K+1, n) window mask; the winner
    maximizes the kernel-density score sum_l p_t(x_j, x_l) over the candidates.
    Knots with empty windows copy the nearest nonempty window's value (argmin's
    first minimum: ties toward the smaller index); if every window is empty
    the candidate set falls back to all observations.
    """
    if K < 1:
        raise ValueError("need at least one segment")
    windows = np.abs(data.ts - np.arange(K + 1)[:, None] / K) <= INIT_WINDOW
    if not windows.any():
        windows = np.ones((1, len(data.ts)), dtype=bool)
    filled = np.flatnonzero(windows.any(axis=1))
    modes = np.stack([_density_mode(m, data.points[windows[k]]) for k in filled])
    nearest = np.abs(filled - np.arange(K + 1)[:, None]).argmin(axis=1)
    return PiecewiseGeodesicPath(m, modes[nearest])


def _density_mode(m: Manifold, candidates: np.ndarray):
    """Candidate with the highest kernel-density score among the candidates."""
    scores = m.heat_kernel_pairwise(INIT_DENSITY_TIME, candidates[:, None], candidates[None]).sum(axis=1)
    return candidates[int(np.argmax(scores))]


def _kernel_blocks(times: tuple, pairs: int, observations: int) -> tuple:
    """(time, rows) blocks of one kernel call: the prior step over the pairs, then each noise time over the
    observations, if there are any."""
    prior_step, *noise = times
    return ((prior_step, pairs), *((t, observations) for t in noise)) if observations else ((prior_step, pairs),)


def _stacked(points: np.ndarray, copies: int) -> np.ndarray:
    """The observed points once per noise time, as the kernel blocks lay them out."""
    return np.concatenate([points] * copies) if len(points) else points


def _block_plan(K: int, interval: np.ndarray, fractions, points, times: tuple, first: int, length: int) -> tuple:
    """Index plan of the colour run first, first + 2, ... of length knots (see _Blocked)."""
    ks = np.arange(first, first + 2 * length, 2)
    # owner[j]: position in ks of knot j, or -1; a pair or interval has at most one owner
    owner = np.full(K + 1, -1)
    owner[ks] = np.arange(len(ks))
    # every pair from the one before ks[0] to the one after ks[-1] meets a knot of ks
    pairs = slice(max(first - 1, 0), min(first + 2 * length - 1, K))
    pair_owner = np.maximum(owner[:-1], owner[1:])[pairs]
    obs_owner = np.maximum(owner[interval], owner[interval + 1])
    obs = np.flatnonzero(obs_owner >= 0)
    blocks = _kernel_blocks(times, len(pair_owner), len(obs))
    return (
        pairs, pair_owner, obs, obs_owner[obs], interval[obs] - pairs.start, fractions[obs],
        _stacked(points[obs], len(times) - 1), blocks,
    )


class _Blocked:
    """Cached log-posterior terms of one path's knots, updated one colour block at a time.

    Updates walk the even knots, then the odd knots, and so on, across calls
    of advance; colour and offset mark where the next update starts.

    A block ks = colours[colour][offset:offset + len(ks)] is scored through
    its index plan, which depends only on ks[0] and len(ks): the prior
    terms it touches, a contiguous range of pairs, with each pair's owning
    position in ks; the observations it touches with their owners; their
    rows, the index of each one's interval in that range of pairs; their
    gathered fractions, and their points once per noise time; and the
    blocks of its one kernel call, the prior step's over the pairs and each
    noise time's over the observations (_terms).  The block's pairs are both
    its prior steps and the geodesic segments its observations lie on, so
    one log map per pair serves every observation (segment_points).  A
    chain repeats few block shapes, so each engine keeps the _MAX_PLANS most
    recently used plans.  With no data (data and sigma None) there are zero
    observations.
    """

    def __init__(self, m: Manifold, knots: np.ndarray, prior: PriorSpec, data: Dataset | None, sigma: SigmaMode | None):
        self.m = m
        self.knots = np.array(knots, copy=True)
        self.K = len(knots) - 1
        self.const = -math.log(m.volume)
        self.sigma = sigma
        self.colours = (np.arange(0, self.K + 1, 2), np.arange(1, self.K + 1, 2))
        self.colour = 0
        self.offset = 0
        ts, self.points = (np.zeros(0), np.zeros((0, *m.point_shape))) if data is None else (data.ts, data.points)
        self.interval, self.fractions = segment_positions(ts, self.K)
        # the kernel times of every call: the prior step, then each noise time
        times = (prior.step_time, *(() if sigma is None else sigma.times))
        self.prior_terms, self.obs_terms = self._terms(
            _kernel_blocks(times, self.K, len(ts)), self.knots[:-1], self.knots[1:],
            self.interval, self.fractions, _stacked(self.points, len(times) - 1),
        )
        # the memo holds only the plan inputs, not the engine, so no cycle outlives a chain
        plan = functools.partial(_block_plan, self.K, self.interval, self.fractions, self.points, times)
        self._plan = functools.lru_cache(maxsize=_MAX_PLANS)(plan)

    def total(self) -> float:
        return float(self.const + self.prior_terms.sum() + self.obs_terms.sum())

    def _terms(self, blocks: tuple, starts: np.ndarray, ends: np.ndarray, rows, fractions, points) -> tuple:
        """Prior terms of the pairs starts -> ends and observation terms of the points at fractions
        along segments rows of them, from one kernel call over blocks (see _Blocked).

        points holds the observed points once per noise time, as blocks lays them out.
        """
        xs = [starts]
        if len(rows):
            xs += [segment_points(self.m, starts, ends, rows, fractions)] * (len(blocks) - 1)
        logs = self.m.log_heat_kernel_pairwise(blocks, np.concatenate(xs), np.concatenate([ends, points]))
        pairs = len(starts)
        return logs[:pairs], (self.sigma.combine(logs[pairs:]) if len(rows) else logs[pairs:])

    def advance(
        self, count: int, proposal_time: float, temperature: float, rng: np.random.Generator, marks=(), snapshots=None
    ):
        """Make count knot updates in colour order; yields (updates, accepted) per block.

        marks are update counts in (0, count]: each one appends to
        snapshots the knots as they stand after that many updates of this
        call.  A mark inside a colour run splits the run's draws there, not
        its scoring.
        """
        pending = sorted(marks, reverse=True)
        done = 0
        while done < count:
            colour = self.colours[self.colour]
            ks = colour[self.offset : self.offset + count - done]
            cuts = []
            while pending and pending[-1] <= done + len(ks):
                cuts.append(pending.pop() - done)
            accepted = self._update_block(ks, proposal_time, temperature, rng, cuts, snapshots)
            self.offset += len(ks)
            if self.offset == len(colour):
                self.colour, self.offset = 1 - self.colour, 0
            done += len(ks)
            yield len(ks), accepted

    def _score(self, ks: np.ndarray, values: np.ndarray):
        """Log-posterior change of moving each knot of ks (pairwise non-adjacent) alone to its value.

        ks is a colour run.  Its plan (see _Blocked) supplies every index,
        gathered observation and kernel block, so a block makes one kernel
        call, over the prior steps and the observations at the proposed end
        points, and sums the changes per owner.

        Returns the per-knot changes and, for the prior and the observation
        terms, the (term indices, owning position in ks, new values) of the
        terms the block touches; the prior's indices are a slice.
        """
        first, length = int(ks[0]), len(ks)
        pairs, pair_owner, obs, obs_owner, rows, fractions, points, blocks = self._plan(first, length)
        proposed = self.knots.copy()
        proposed[first : first + 2 * length - 1 : 2] = values
        starts, ends = proposed[pairs], proposed[pairs.start + 1 : pairs.stop + 1]
        new_prior, new_obs = self._terms(blocks, starts, ends, rows, fractions, points)
        delta = np.bincount(pair_owner, weights=new_prior - self.prior_terms[pairs], minlength=length)
        delta += np.bincount(obs_owner, weights=new_obs - self.obs_terms[obs], minlength=length)
        return delta, (pairs, pair_owner, new_prior), (obs, obs_owner, new_obs)

    def _update_block(
        self, ks: np.ndarray, proposal_time: float, temperature: float, rng: np.random.Generator,
        cuts=(), snapshots=None,
    ) -> int:
        """One proposal per knot of ks in order, one vectorized Metropolis test; returns the accepts.

        Each cut c in (0, len(ks)] appends to snapshots the knots with the
        accepts of ks[:c] applied.  The proposals and uniforms of ks[:c] are
        drawn before those of ks[c:], as two blocks split at c would draw them.
        """
        draw = self.m.sample_heat_kernel
        run = slice(int(ks[0]), int(ks[-1]) + 1, 2)
        # the run's knots, a view of self.knots that the accepts are written through
        centres = self.knots[run]
        ends = [c for c in cuts if c < len(ks)] + [len(ks)]
        start, values, u = 0, [], []
        for end in ends:
            values += [draw(proposal_time, x, rng) for x in centres[start:end]]
            # rng.uniform(size=n)'s bits, from the same stream
            u.append(rng.random(end - start))
            start = end
        values = np.asarray(values)
        u = u[0] if len(u) == 1 else np.concatenate(u)
        delta, (pairs, pair_owner, new_prior), (obs, obs_owner, new_obs) = self._score(ks, values)
        accept = _metropolis_accepts(delta, u, temperature)
        accepted = int(np.count_nonzero(accept))
        before = centres.copy() if cuts else None
        if accepted:
            np.copyto(centres, values, where=accept.reshape(accept.shape + (1,) * (values.ndim - 1)))
            np.copyto(self.prior_terms[pairs], new_prior, where=accept[pair_owner])
            kept = accept[obs_owner]
            self.obs_terms[obs[kept]] = new_obs[kept]
        for c in cuts:
            snapshot = self.knots.copy()
            snapshot[run][c:] = before[c:]
            snapshots.append(snapshot)
        return accepted


def _metropolis_accepts(delta: np.ndarray, u: np.ndarray, temperature: float) -> np.ndarray:
    """Metropolis decisions: u < exp(min(delta, 0) / temperature), which holds for every delta >= 0 since u < 1."""
    return u < np.exp(np.minimum(delta, 0.0) / temperature)


def anneal_map(
    data: Dataset,
    sigma: SigmaMode,
    spec: PriorSpec,
    cfg: AnnealConfig,
    m: Manifold,
    rng: np.random.Generator,
) -> FitResult:
    """Simulated-annealing MAP search started from the windowed-mode path."""
    state = init_state(data, spec.segments, m)
    engine = _Blocked(m, state.knots, spec, data, sigma)
    current = engine.total()
    best = current
    best_knots = np.array(engine.knots, copy=True)
    trace = [(0, current)]
    accepted = 0
    iteration = 0
    temperature = cfg.initial_temperature
    while True:
        step_time = cfg.proposal_time * temperature / cfg.initial_temperature
        for updates, block_accepted in engine.advance(cfg.steps_per_temperature, step_time, temperature, rng):
            if block_accepted:
                accepted += block_accepted
                current = engine.total()
                if current > best:
                    best = current
                    best_knots = np.array(engine.knots, copy=True)
            iteration += updates
            trace.append((iteration, current))
        if temperature * cfg.cooling_factor < cfg.temperature_floor:
            break
        temperature *= cfg.cooling_factor
    rate = accepted / iteration if iteration else 0.0
    return FitResult(
        path=PiecewiseGeodesicPath(m, best_knots),
        best_log_posterior=best,
        trace=trace,
        acceptance_rate=rate,
    )


def mh_sample(
    data: Dataset | None,
    sigma: SigmaMode | None,
    spec: PriorSpec,
    cfg: McmcConfig,
    m: Manifold,
    rng: np.random.Generator,
) -> SampleResult:
    """Fixed-temperature Metropolis chain over knot paths, started from init_state.

    With data and sigma both None there is no likelihood: the chain samples
    the discretized Brownian-motion prior, started from a sample_prior_path
    draw.  Exactly one of them None raises ValueError.
    """
    if (data is None) != (sigma is None):
        raise ValueError("pass data and sigma together, or neither to sample the prior")
    state = sample_prior_path(spec, m, rng) if data is None else init_state(data, spec.segments, m)
    engine = _Blocked(m, state.knots, spec, data, sigma)

    def run(count: int, marks=(), snapshots=None) -> int:
        return sum(accepted for _, accepted in engine.advance(count, cfg.proposal_time, 1.0, rng, marks, snapshots))

    accepted = run(cfg.burn_in)
    kept = cfg.iterations - cfg.burn_in
    stored = []
    accepted += run(kept, range(cfg.thinning, kept + 1, cfg.thinning), stored)
    return SampleResult(knots=np.stack(stored), acceptance_rate=accepted / cfg.iterations)
