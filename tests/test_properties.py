"""Generator invariants over random valid configs (hypothesis).

Every generated config is valid input: 1-4 species with random energies,
displacements and couplings, a cavity that may sit on resonance and may be
uncoupled (g = 0), kappa/gamma/eta that may be 0, and T in [150, 450] K,
under the bare and vsc regimes. Each generator must
conserve probability column by column, keep every off-diagonal rate
non-negative, pair every rate by detailed balance and commute with the
exchange of the two molecules, whose state energies it maps onto each
other bit for bit.

Nonzero displacements reach down to 1e-160, whose one-quantum factors fall
below the smallest normal double, so reactive pairs that underflow are drawn.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import detailed_balance_worst
from vsckinetics.config import build_generator, config_from_dict
from vsckinetics.units import thermal_energy

OMEGA_V = 2000.0


def zero_or(low, high):
    return st.one_of(st.just(0.0), st.floats(low, high))


@st.composite
def configs(draw):
    n_species = draw(st.integers(1, 4))
    labels = [f"S{i}" for i in range(n_species)]
    species = [
        {
            "label": label,
            "energy": draw(st.floats(-1000.0, 1000.0)),
            "displacement": draw(zero_or(1e-160, 3.0)),
        }
        for label in labels
    ]
    couplings = []
    for i in range(n_species):
        for j in range(i + 1, n_species):
            if draw(st.booleans()):
                couplings.append(
                    {
                        "pair": [labels[i], labels[j]],
                        "J": draw(st.floats(0.1, 50.0)),
                        "lambda_s": draw(st.floats(100.0, 800.0)),
                    }
                )
    return {
        "omega_v": OMEGA_V,
        "species": species,
        "couplings": couplings,
        "cavity": {
            "omega_c": OMEGA_V + draw(zero_or(-300.0, 300.0)),
            "g": draw(zero_or(0.01, 150.0)),
            "kappa": draw(zero_or(1e-3, 10.0)),
        },
        "bath": {
            "gamma": draw(zero_or(1e-4, 1.0)),
            "eta": draw(zero_or(1e-5, 1e-2)),
            "temperature": draw(st.floats(150.0, 450.0)),
        },
        "regime": draw(st.sampled_from(["bare", "vsc"])),
    }


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(configs())
def test_generator_invariants(raw):
    config = config_from_dict(raw)
    gen = build_generator(config)
    K = gen.matrix
    n = len(config.network.species)
    assert K.shape == (4 * n * n, 4 * n * n)

    scale = max(1.0, float(gen.out_rates.max()))
    assert np.abs(K.sum(axis=0)).max() <= 1e-12 * scale

    off = K - np.diag(np.diag(K))
    assert np.all(off >= 0.0)

    energies = np.array([s.energy for s in gen.states])
    kT = thermal_energy(config.bath.temperature)
    assert detailed_balance_worst(K, energies, kT) <= 1e-10

    perm = gen.exchange
    assert np.array_equal(energies[perm], energies)
    swapped = K[perm][:, perm]
    assert np.array_equal(swapped - np.diag(np.diag(swapped)), off)
    # the diagonal sums the same rates in another order
    assert np.all(np.abs(np.diag(swapped) - np.diag(K)) <= 4 * np.finfo(float).eps * gen.out_rates)
