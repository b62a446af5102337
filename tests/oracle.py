"""Dense, pilot-by-pilot reference of a whole Monte Carlo trial.

Every channel is built with `channel.assemble` from the dense hops of
`make_link`, every pilot is measured on it one at a time, the codebook
descent and the water-filling rows are taken here in scalar loops, and
every rate is scored from a dense SVD of the combiner and of the projected
channel. It reads the same streams and tape positions as `run_trial`, so
the engine must reproduce it draw for draw.
"""

from dataclasses import astuple

import numpy as np

from conftest import dense_hops, steered
from irsmimo.arrays import steering
from irsmimo.channel import assemble
from irsmimo.harness import _trial_seed, perfect_estimates, sample_scenario
from irsmimo.irs_control import (absorbing, direction_mode, random_mode,
                                 return_mode)
from irsmimo.training import noise_tape
from irsmimo.transmission import parallel_rate, water_filling


def bridged(cascade, irs_index, arrival, departure):
    """Assembled channel with one IRS in direction mode, the others absorbing."""
    spec = cascade.irs_spec
    thetas = [absorbing(spec.num_elements)] * cascade.num_irs
    thetas[irs_index] = direction_mode(
        spec.num_elements, spec.spacing_wavelengths, arrival, departure,
        amplitude=cascade.consts.reflection_amplitude)
    return assemble(cascade, thetas)


def descend(book, measure):
    """The calibrated descent, one child at a time: at each stage every live
    child of the current node is measured (`measure(beam, stage, slot)`, slot
    its position among its siblings), weighted by its squared calibration,
    and the largest wins, the first on a tie. Returns (leaf, pilots)."""
    index, pilots = 0, 0
    for stage in range(1, book.num_stages + 1):
        best, best_stat = None, None
        for slot in range(book.branching):
            child = index * book.branching + slot
            if not book.live[stage][child]:
                continue
            pilots += 1
            stat = (measure(book.stages[stage][:, child], stage, slot)
                    * book.weights[stage][child])
            if best is None or stat > best_stat:
                best, best_stat = child, stat
        index = best
    return index, pilots


def reference_pass(cascade, assets, power, noise_power, tape, p):
    """Pilot-by-pilot cooperative estimation at one power, from tape row p.

    A scalar sweep loop over literal return-mode round trips, bridge slots
    on assembled channels, `descend` with pilots that read each child's tape
    position, and composite-loss pilots with the arithmetic of
    `measure_power`. Returns (angles, search pilots, losses).
    """
    grid = assets.sweep_grid
    consts, spec = cascade.consts, cascade.irs_spec
    amplitude, scale = np.sqrt(power), np.sqrt(noise_power / 2.0)
    books = (assets.tx_codebook, assets.rx_codebook)
    angles, losses, pilots = [], [], 0
    for l in range(cascade.num_irs):
        # a terminal on its first element hears e1^T (eta G_t G_r A^T Theta A) e1
        best = []
        incident, departing = dense_hops(cascade, l)
        for side, hop in enumerate((incident, departing.T)):
            heard = []
            for k, angle in enumerate(grid.directions):
                theta = return_mode(spec.num_elements, spec.spacing_wavelengths,
                                    angle, consts.reflection_amplitude)
                roundtrip = (cascade.eta * consts.tx_gain * consts.rx_gain
                             * hop.T @ np.diag(theta.entries()) @ hop)
                heard.append(abs(amplitude * roundtrip[0, 0]
                                 + scale * tape.sweep[p, l, side, k]) ** 2)
            best.append(int(np.argmax(heard)))
        arrival = grid.directions[best[0]]
        slot = grid.num_beams - 1 - best[1]
        half = grid.num_beams // 2
        candidates = (slot, slot - half if slot >= half else slot + half)
        heard = [abs(amplitude * bridged(cascade, l, arrival,
                                         grid.directions[c])[0, 0]
                     + scale * tape.bridge[p, l, i]) ** 2
                 for i, c in enumerate(candidates)]
        departure = grid.directions[candidates[int(np.argmax(heard))]]
        H = bridged(cascade, l, arrival, departure)

        leaves = []
        for side, book in enumerate(books):
            def measure(w, stage, slot, side=side):
                # receive side w^H H[:, 0]; transmit side w^T H[0, :]
                signal = np.vdot(w, H[:, 0]) if side else w @ H[0, :]
                noise = (np.sqrt(noise_power * np.vdot(w, w).real / 2.0)
                         * tape.search[p, l, side, stage - 1, slot])
                return abs(amplitude * signal + noise) ** 2
            leaf, count = descend(book, measure)
            pilots += count
            leaves.append(book.leaf_grid.directions[leaf])
        angles.append((leaves[0], arrival, departure, leaves[1]))

        w = steering(cascade.rx_spec, leaves[1]).coefficients
        f = steering(cascade.tx_spec, leaves[0]).coefficients
        heard = np.mean(np.abs(amplitude * np.vdot(w, H @ f)
                               + scale * tape.pilots[p, l]) ** 2)
        losses.append(np.sqrt(max(heard - noise_power, 0.0) / power))
    return np.array(angles), pilots, np.array(losses)


def dense_rate(H, F, W, power, noise_power):
    """log2 det(I + P C^+ W^H H F F^H H^H W), C = sigma^2 W^H W, on the
    streams whose combiner and precoder columns are both nonzero (norm above
    1e-12): G = Q^H H F with Q the left singular vectors of those combiner
    columns above 1e-10 of the largest singular value, scored from G's
    singular values."""
    active = ((np.linalg.norm(W, axis=0) > 1e-12)
              & (np.linalg.norm(F, axis=0) > 1e-12))
    U, s, _ = np.linalg.svd(W * active, full_matrices=False)
    Q = U * (s > 1e-10 * s.max())
    G = Q.conj().T @ H @ (F * active)
    return float(parallel_rate(np.linalg.svd(G, compute_uv=False), 1.0,
                               max(power, 0.0), noise_power))


def _water_filled(gains, power, noise_power):
    """`water_filling` factors of `gains`, or None if no gain has a finite
    floor sigma^2 / (P a^2)."""
    try:
        return water_filling(gains, power, noise_power).factors
    except ValueError:
        return None


def _designed_thetas(cascade, rows):
    spec = cascade.irs_spec
    return [direction_mode(spec.num_elements, spec.spacing_wavelengths,
                           row[1], row[2],
                           amplitude=cascade.consts.reflection_amplitude)
            for row in rows]


def hybrid_rate(cascade, rows, power, noise_power):
    """The closed-form hybrid design of estimate rows (N_i, 5), on the
    assembled channel of the IRSs in direction mode on their angles."""
    factors = _water_filled(rows[:, 4], power, noise_power)
    if factors is None:
        return 0.0
    f, w = steered(cascade.tx_spec, cascade.rx_spec, rows[:, :4])
    return dense_rate(assemble(cascade, _designed_thetas(cascade, rows)),
                      f.T * np.sqrt(factors), w.T, power, noise_power)


def bound_rate(H, power, noise_power):
    """Water-filling over the dense singular values of H, one at or below
    1e-14 of the largest taken as 0."""
    sv = np.linalg.svd(H, compute_uv=False)
    sv = np.where(sv > 1e-14 * sv.max(), sv, 0.0)
    factors = _water_filled(sv, power, noise_power)
    if factors is None:
        return 0.0
    return float(parallel_rate(sv, factors, power, noise_power))


def reference_trial(config, assets, trial):
    """Trial `trial` of `config` taken densely: (truth (N_i, 5), estimates
    (P, N_i, 5), rates (P, 4) in `RATE_KEYS` order, search pilots (P,))."""
    cascade, _ = sample_scenario(
        config, _trial_seed(config.seed, trial, 0), assets)
    rng = _trial_seed(config.seed, trial, 1)
    random_thetas = [random_mode(config.num_irs_elements, rng,
                                 amplitude=config.reflection_amplitude)
                     for _ in range(config.num_irs)]
    noise = assets.noise_power
    tape = noise_tape(cascade, assets, config.pilot_repetitions,
                      [_trial_seed(config.seed, trial, 2 + p)
                       for p in range(assets.powers.size)])
    truth = np.array([astuple(e) for e in perfect_estimates(cascade)])
    genie = assemble(cascade, _designed_thetas(cascade, truth))
    random = assemble(cascade, random_thetas)
    estimates, rates, search = [], [], []
    for p, power in enumerate(assets.powers):
        angles, pilots, losses = reference_pass(cascade, assets, power,
                                                noise, tape, p)
        rows = np.column_stack([angles, losses])
        estimates.append(rows)
        search.append(pilots)
        rates.append([hybrid_rate(cascade, rows, power, noise),
                      hybrid_rate(cascade, truth, power, noise),
                      bound_rate(genie, power, noise),
                      bound_rate(random, power, noise)])
    return truth, np.array(estimates), np.array(rates), np.array(search)
