"""Golden estimates: every (model, kind) on a small grid.

The values were recorded with the code before the model protocol
refactor, which computed the AlphaRFSV weight components by separate
closed forms and every other model by a generic quadrature.  Estimates
must reproduce them to relative 1e-10; None marks a combination that
raises UnsupportedError.
"""

from pathlib import Path

import pytest

from volterra_greeks import (
    AlphaRFSV,
    AlphaSV,
    BlackScholes,
    KernelSpec,
    MarketSpec,
    MixedAlphaRFSV,
    OptionSpec,
    RoughSteinStein,
    SteinStein,
    TimeGrid,
    UnsupportedError,
    estimate,
)

MODELS = {
    "alpharfsv": AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.5, kernel=KernelSpec(H=0.14, eps=1e-6)),
    "mixed": MixedAlphaRFSV(v0=0.4, xi_h=0.2, xi_hp=0.3, alpha=0.7, rho=-0.5,
                            kernel_h=KernelSpec(H=0.2, eps=1e-4), kernel_hp=KernelSpec(H=0.7, eps=0.0)),
    "rough_stein_stein": RoughSteinStein(v0=0.3, kappa=1.5, theta=0.25, nu=0.4, rho=-0.5,
                                         kernel=KernelSpec(H=0.3, eps=1e-3)),
    "alphasv": AlphaSV(v0=0.04, xi=0.3, alpha=1.0, rho=-0.5),
    "stein_stein": SteinStein(v0=0.3, kappa=1.5, theta=0.25, nu=0.4, rho=-0.5),
    "black_scholes": BlackScholes(sigma=0.2),
}
MARKET = MarketSpec(s0=100.0, r=0.03)
OPTION = OptionSpec(strike=95.0, maturity=1.0)
GRID = TimeGrid(T=1.0, n=16)
N_PATHS, SEED = 1000, 2718

# (model, kind) -> (value, stderr, n_discarded)
GOLDEN = {
    ('alpharfsv', 'price'): (25.68028967756202, 1.5947798462557292, 0),
    ('alpharfsv', 'delta'): (0.6498399924018722, 0.06236025778446447, 0),
    ('alpharfsv', 'gamma'): (0.005239520355737699, 0.0016604391502850703, 0),
    ('alpharfsv', 'rho'): (39.3037095626252, 4.7778260847705605, 0),
    ('alpharfsv', 'vega'): (33.85708722091863, 8.823785232875023, 0),
    ('alpharfsv', 'hsens'): (1.6792970324328793, 0.8717818378480684, 0),
    ('mixed', 'price'): (18.643917255121693, 0.9432534232415744, 0),
    ('mixed', 'delta'): (0.6417847068970457, 0.05533644285810361, 0),
    ('mixed', 'gamma'): None,
    ('mixed', 'rho'): (45.534553434582875, 4.696511619808365, 0),
    ('mixed', 'vega'): None,
    ('mixed', 'hsens'): None,
    ('rough_stein_stein', 'price'): (16.051066256168788, 0.7008258043144369, 0),
    ('rough_stein_stein', 'delta'): (-42.70614733241333, 22.602427326157127, 0),
    ('rough_stein_stein', 'gamma'): (107508.096268593, 89869.54117378862, 0),
    ('rough_stein_stein', 'rho'): (-4286.665799497502, 2260.259484466076, 0),
    ('rough_stein_stein', 'vega'): None,
    ('rough_stein_stein', 'hsens'): None,
    ('alphasv', 'price'): (11.810550660945466, 0.4684778571921078, 0),
    ('alphasv', 'delta'): (0.6683857267425014, 0.0502019141758583, 0),
    ('alphasv', 'gamma'): None,
    ('alphasv', 'rho'): (55.02802201330467, 4.610543910788899, 0),
    ('alphasv', 'vega'): None,
    ('alphasv', 'hsens'): None,
    ('stein_stein', 'price'): (15.819637036743494, 0.6703094231581527, 0),
    ('stein_stein', 'delta'): (-1092.005196386724, 979.2839641288393, 0),
    ('stein_stein', 'gamma'): (164878587.00338098, 163708392.63720205, 0),
    ('stein_stein', 'rho'): (-109216.33927570914, 97928.39957063334, 0),
    ('stein_stein', 'vega'): None,
    ('stein_stein', 'hsens'): None,
    ('black_scholes', 'price'): (11.733679519425964, 0.48590270227307053, 0),
    ('black_scholes', 'delta'): (0.6593319929284199, 0.04737837194695414, 0),
    ('black_scholes', 'gamma'): (0.01633498024969495, 0.003986629644215573, 0),
    ('black_scholes', 'rho'): (54.19951977341603, 4.298477567903501, 0),
    ('black_scholes', 'vega'): (32.6699604993899, 7.973259288431144, 0),
    ('black_scholes', 'hsens'): None,
}


def _id(key):
    # gamma and rho keep the "-derived" suffix of their test ids: it names the weight form the values pin
    return "-".join(key) + ("-derived" if key[1] in ("gamma", "rho") else "")


@pytest.mark.parametrize("key", list(GOLDEN), ids=_id)
def test_golden_estimates(key):
    name, kind = key
    want = GOLDEN[key]
    if want is None:
        with pytest.raises(UnsupportedError):
            estimate(kind, MODELS[name], MARKET, OPTION, GRID, N_PATHS, SEED)
        return
    est = estimate(kind, MODELS[name], MARKET, OPTION, GRID, N_PATHS, SEED)
    assert est.value == pytest.approx(want[0], rel=1e-10)
    assert est.stderr == pytest.approx(want[1], rel=1e-10)
    assert est.n_discarded == want[2]


def _cells(line):
    return [c.strip().strip("`") for c in line.strip("|").split("|")]


def test_readme_support_table_matches_golden():
    # the README's kind x model table documents which pairs raise UnsupportedError
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| kind "))
    models = _cells(lines[start])[1:]
    table = {}
    for line in lines[start + 2:start + 8]:
        kind, *row = _cells(line)
        table.update({(m, kind): cell == "supported" for m, cell in zip(models, row)})
    assert table == {key: want is not None for key, want in GOLDEN.items()}
