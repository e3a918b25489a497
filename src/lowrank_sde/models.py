"""SDE model contract and the concrete test systems.

A model provides drift a(t, x) and diffusion b(t, x) for the Ito SDE
dX = a(t, X) dt + b(t, X) dW, evaluated on whole sample clouds only:
``drift_many`` and ``diffusion_dw`` take the (d, M) cloud, which is
all the schemes ever step.  Each builder returns (model, law), the law
a plain sampler (seed, M) -> (d, M) of initial states.

Six systems plus a closed-form geometric Brownian motion oracle:

* three low-dimensional toy systems (shared linear drift, multiplicative
  or additive noise, and a nonlinear variant),
* a diagonal linear test system for mean-square stability studies,
* a 1-d advection-diffusion-reaction PDE discretization (Neumann),
* a 1-d heat equation with sliding forcing and colored multiplicative
  noise (Dirichlet).
"""

import inspect

import numpy as np

from .errors import SpecError
from .noise import standard_normals

# Philox stream key used for initial-condition sampling; step blocks use
# key=[seed, step] with step far below this, so streams cannot collide.
INIT_STREAM_KEY = 2 ** 63


def _init_generator(seed):
    return np.random.Generator(np.random.Philox(key=[int(seed), INIT_STREAM_KEY]))


class SdeModel:
    """Drift/diffusion evaluation contract with dimensions and flags.

    Parameters
    ----------
    name : str
    d, m : ambient and noise dimensions.
    drift_many : callable (t, X of shape (d, M)) -> (d, M)
    diffusion_dw : callable (t, X of shape (d, M), dW of shape (m, M)) -> (d, M)
        Applies b(t, x_j) to dw_j column by column.
    a_mat : callable t -> (d, d) or None
        Set exactly when the drift is linear, a(t, x) = a_mat(t) x; the
        read-only ``is_linear_drift`` says whether it is.
    sigma_b_lower : float or None
        Certified uniform-ellipticity constant: b b^T >= sigma_b_lower * I.
    c_lgb : float or None
        Certified linear-growth constant: |a|^2 + ||b||_F^2 <= c_lgb (1 + |x|^2).
    """

    def __init__(self, name, d, m, drift_many, diffusion_dw, a_mat=None,
                 sigma_b_lower=None, c_lgb=None, description=""):
        self.name = name
        self.d = int(d)
        self.m = int(m)
        self.drift_many = drift_many
        self.diffusion_dw = diffusion_dw
        self.a_mat = a_mat
        self.sigma_b_lower = sigma_b_lower
        self.c_lgb = c_lgb
        self.description = description

    @property
    def is_linear_drift(self):
        return self.a_mat is not None


# ---------------------------------------------------------------------------
# toy systems

_TOY_A = np.array(
    [
        [-0.1, 0.1, 0.001],
        [-0.1, 0.1, 0.001],
        [-4.0, -4.0, -4.0],
    ]
)


def _toy_linear_growth_constant(sigma_b, multiplicative):
    smax_sq = np.linalg.norm(_TOY_A, 2) ** 2
    if multiplicative:
        # (1 + 6(|x1|+|x2|))^2 <= 2 + 144 |x|^2, two such diagonal entries
        # plus the constant third one
        return smax_sq + 288.0 * sigma_b + 5.0 * sigma_b
    return smax_sq + 2.0 * sigma_b


def _toy_initial_law(width1, width2):
    def sampler(seed, m_paths):
        """X_i(0) = 0.1 - Uniform(-width_i, width_i) for i = 1, 2; third
        component 0."""
        gen = _init_generator(seed)
        un = np.vstack(
            [
                gen.uniform(-width1, width1, size=m_paths),
                gen.uniform(-width2, width2, size=m_paths),
            ]
        )
        samples = np.zeros((3, m_paths))
        samples[0] = 0.1 - un[0]
        samples[1] = 0.1 - un[1]
        return samples

    return sampler


def toy_example_1(sigma_b=1e-8):
    """Linear drift with state-dependent diagonal noise, uniformly elliptic."""
    if not sigma_b > 0:
        raise SpecError("toy_example_1 needs sigma_b > 0")
    root = np.sqrt(sigma_b)

    def drift_many(t, x):
        return _TOY_A @ x

    def diffusion_dw(t, x, dw):
        g = 1.0 + 6.0 * (np.abs(x[0]) + np.abs(x[1]))
        out = np.empty_like(x)
        out[0] = root * g * dw[0]
        out[1] = root * g * dw[1]
        out[2] = root * dw[2]
        return out

    model = SdeModel(
        name="toy_example_1",
        d=3,
        m=3,
        drift_many=drift_many,
        diffusion_dw=diffusion_dw,
        a_mat=lambda t: _TOY_A,
        sigma_b_lower=sigma_b,
        c_lgb=_toy_linear_growth_constant(sigma_b, multiplicative=True),
        description="3-d linear drift, diagonal multiplicative noise with "
        "uniform ellipticity sigma_b",
    )
    return model, _toy_initial_law(1e-4, 1e-4)


def toy_example_2(sigma_b=1e-19):
    """Same linear drift, additive noise on the first two components
    from two channels; the third row of b is zero."""
    if sigma_b < 0:
        raise SpecError("toy_example_2 needs sigma_b >= 0")
    root = np.sqrt(sigma_b)

    def drift_many(t, x):
        return _TOY_A @ x

    def diffusion_dw(t, x, dw):
        out = np.empty_like(x)
        out[0] = root * dw[0]
        out[1] = root * dw[1]
        out[2] = 0.0
        return out

    model = SdeModel(
        name="toy_example_2",
        d=3,
        m=2,
        drift_many=drift_many,
        diffusion_dw=diffusion_dw,
        a_mat=lambda t: _TOY_A,
        sigma_b_lower=None,
        c_lgb=_toy_linear_growth_constant(sigma_b, multiplicative=False),
        description="3-d linear drift, additive degenerate noise on two "
        "channels",
    )
    return model, _toy_initial_law(1e-4, 1e-9)


def toy_example_3(sigma_b=1e-19):
    """Nonlinear (sine) drift variant of toy_example_2."""
    if sigma_b < 0:
        raise SpecError("toy_example_3 needs sigma_b >= 0")
    root = np.sqrt(sigma_b)

    def drift_many(t, x):
        s = np.sin(x[0])
        r12 = -3.0 * s + 0.1 * x[1] + 0.001 * x[2]
        out = np.empty_like(x)
        out[0] = r12
        out[1] = r12
        out[2] = -4.0 * s - 4.0 * x[1] - 4.0 * x[2]
        return out

    def diffusion_dw(t, x, dw):
        out = np.empty_like(x)
        out[0] = root * dw[0]
        out[1] = root * dw[1]
        out[2] = 0.0
        return out

    # |row12|^2 <= 3(9 + 0.01 x2^2 + 1e-6 x3^2), |row3|^2 <= 3(16 + 16 x2^2 + 16 x3^2)
    c_lgb = 102.0 + 2.0 * sigma_b

    model = SdeModel(
        name="toy_example_3",
        d=3,
        m=2,
        drift_many=drift_many,
        diffusion_dw=diffusion_dw,
        sigma_b_lower=None,
        c_lgb=c_lgb,
        description="3-d nonlinear sine drift, additive degenerate noise on "
        "two channels",
    )
    return model, _toy_initial_law(1e-4, 1e-9)


# ---------------------------------------------------------------------------
# linear stability test system


def stability_model(d=10):
    """Diagonal linear test SDE, one Brownian motion per component.

    Component i follows dX_i = a_ii(t) X_i dt + 0.1 X_i dW^i with
    a_ii = -22 for i = 1, 2, 3 and a_ii = -22 + sin(3 pi t) otherwise.
    """
    d = int(d)
    if d < 3:
        raise SpecError("stability_model needs d >= 3")

    def a_diag(t):
        out = np.full(d, -22.0 + np.sin(3.0 * np.pi * t))
        out[:3] = -22.0
        return out

    def drift_many(t, x):
        return a_diag(t)[:, np.newaxis] * x

    def diffusion_dw(t, x, dw):
        return 0.1 * x * dw

    def sampler(seed, m_paths):
        """X_i(0) = 1 + 0.005 sum_j sin(j pi i / d) N_j, three shared
        normals."""
        gen = _init_generator(seed)
        normals = standard_normals(gen, (3, m_paths))
        i = np.arange(1, d + 1)[:, np.newaxis]
        modes = 0.005 * np.sin(np.pi * i * np.arange(1, 4)[np.newaxis, :] / d)
        return 1.0 + modes @ normals

    model = SdeModel(
        name="stability_model",
        d=d,
        m=d,
        drift_many=drift_many,
        diffusion_dw=diffusion_dw,
        a_mat=lambda t: np.diag(a_diag(t)),
        sigma_b_lower=None,
        c_lgb=23.0 ** 2 + 0.01,
        description="diagonal linear test SDE for mean-square stability",
    )
    return model, sampler


# ---------------------------------------------------------------------------
# advection-diffusion-reaction PDE discretization


def sadr_model(d=25):
    """1-d advection-diffusion-reaction system with additive low-rank noise.

    Cell-centered grid on [0, 1] with Neumann conditions imposed through
    ghost-cell reflection; second-order centered diffusion, first-order
    backward (upwind, v > 0) advection, pointwise sine reaction. Noise
    columns are the five fixed spatial profiles 0.5 sin(i pi x).
    """
    d = int(d)
    if d < 3:
        raise SpecError("sadr_model needs d >= 3")
    coef_a, coef_v, coef_r = 0.005, 0.3, 0.1
    m = 5
    length = 1.0
    dx = length / d
    x = (np.arange(d) + 0.5) * dx

    d2 = np.zeros((d, d))
    for i in range(d):
        d2[i, i] = -2.0
        if i > 0:
            d2[i, i - 1] = 1.0
        if i < d - 1:
            d2[i, i + 1] = 1.0
    # ghost reflection u_{-1} = u_0 and u_d = u_{d-1}
    d2[0, 0] = -1.0
    d2[d - 1, d - 1] = -1.0
    d2 /= dx ** 2

    d1 = np.zeros((d, d))
    for i in range(1, d):
        d1[i, i] = 1.0
        d1[i, i - 1] = -1.0
    # backward difference at the inflow boundary vanishes under reflection
    d1 /= dx

    lin = coef_a * d2 - coef_v * d1

    phi = np.zeros((d, m))
    for i in range(1, m + 1):
        phi[:, i - 1] = 0.5 * np.sin(i * np.pi * x / length)

    def drift_many(t, u):
        return lin @ u + coef_r * np.sin(u)

    def diffusion_dw(t, u, dw):
        return phi @ dw

    # |a(u)|^2 <= 2 ||lin||^2 |u|^2 + 2 r^2 d, plus the constant ||phi||_F^2
    lin_norm_sq = np.linalg.norm(lin, 2) ** 2
    c_lgb = max(2.0 * lin_norm_sq, 2.0 * coef_r ** 2 * d + np.sum(phi * phi))

    def sampler(seed, m_paths):
        """sum_i sin(pi (i+1) x) / (2 pi i)^2 * (0.5 - Uniform(-1e-4, 1e-4))"""
        gen = _init_generator(seed)
        un = gen.uniform(-1e-4, 1e-4, size=(m, m_paths))
        profiles = np.zeros((d, m))
        for i in range(1, m + 1):
            profiles[:, i - 1] = np.sin(np.pi * (i + 1) * x / length) / (2.0 * np.pi * i) ** 2
        return profiles @ (0.5 - un)

    model = SdeModel(
        name="sadr_model",
        d=d,
        m=m,
        drift_many=drift_many,
        diffusion_dw=diffusion_dw,
        sigma_b_lower=None,
        c_lgb=c_lgb,
        description="advection-diffusion-reaction finite differences, "
        "Neumann boundaries, additive rank-5 noise",
    )
    return model, sampler


# ---------------------------------------------------------------------------
# stochastic heat equation with colored noise


def laplacian_model(d=26, noise_profile="constant"):
    """1-d heat equation with sliding forcing and colored noise, Dirichlet.

    The grid includes both boundary points; boundary rows of the drift
    and of every noise column are zero so the Dirichlet condition is
    preserved exactly. Noise channel l carries the scalar
    gamma_l * <u, cos(2 pi l x) + sin(2 pi l x)> (trapezoidal inner
    product); by default it loads a spatially constant direction, the
    "trig" option reapplies the channel's own trig profile instead.
    """
    d = int(d)
    if d < 3:
        raise SpecError("laplacian_model needs d >= 3")
    if noise_profile not in ("constant", "trig"):
        raise SpecError("noise_profile must be 'constant' or 'trig'")
    m = 26
    diffusivity = 0.001
    length_l, speed_v = 0.12, 0.4
    period = 2.0 * (1.0 - length_l) / speed_v
    h = 1.0 / (d - 1)
    x = np.arange(d) * h

    lap = np.zeros((d, d))
    for i in range(1, d - 1):
        lap[i, i - 1] = 1.0
        lap[i, i] = -2.0
        lap[i, i + 1] = 1.0
    lap *= diffusivity / h ** 2

    interior = np.ones(d)
    interior[0] = 0.0
    interior[-1] = 0.0

    # trapezoidal quadrature weights on the uniform grid
    w = np.full(d, h)
    w[0] = 0.5 * h
    w[-1] = 0.5 * h

    ell = np.arange(1, m + 1)
    gammas = np.exp(-2.0 * np.pi * ell) / (2.0 * np.pi * ell)
    trig = np.cos(2.0 * np.pi * np.outer(ell, x)) + np.sin(2.0 * np.pi * np.outer(ell, x))
    # row l maps u to gamma_l <u, psi_l>
    q = gammas[:, np.newaxis] * trig * w[np.newaxis, :]

    if noise_profile == "constant":
        profiles = np.tile(interior[:, np.newaxis], (1, m))
    else:
        profiles = trig.T * interior[:, np.newaxis]

    def forcing(t):
        s = t % period
        t_ref = s if s <= 0.5 * period else period - s
        lo = speed_v * t_ref
        hi = length_l + speed_v * t_ref
        f = np.where((x > lo) & (x < hi), 3.0, 0.0)
        return f * interior

    def drift_many(t, u):
        return lap @ u + forcing(t)[:, np.newaxis]

    def diffusion_dw(t, u, dw):
        s = q @ u
        if noise_profile == "constant":
            return interior[:, np.newaxis] * np.sum(s * dw, axis=0)[np.newaxis, :]
        return profiles @ (s * dw)

    lap_norm_sq = np.linalg.norm(lap, 2) ** 2
    load_sq = float(np.max(np.sum(profiles * profiles, axis=0)))
    q_norm_sq = np.linalg.norm(q, 2) ** 2
    c_lgb = max(2.0 * lap_norm_sq + load_sq * q_norm_sq * m, 2.0 * 9.0 * d)

    def sampler(seed, m_paths):
        """sum_{l=1}^{13} sin(pi l x) N_l + 8e-7 sin(8 pi x) N_14"""
        gen = _init_generator(seed)
        normals = standard_normals(gen, (14, m_paths))
        modes = np.zeros((d, 14))
        for k in range(1, 14):
            modes[:, k - 1] = np.sin(np.pi * k * x)
        modes[:, 13] = 8e-7 * np.sin(8.0 * np.pi * x)
        return modes @ normals

    model = SdeModel(
        name="laplacian_model",
        d=d,
        m=m,
        drift_many=drift_many,
        diffusion_dw=diffusion_dw,
        sigma_b_lower=None,
        c_lgb=c_lgb,
        description="heat equation with sliding forcing and colored "
        "multiplicative noise, Dirichlet boundaries",
    )
    return model, sampler


# ---------------------------------------------------------------------------
# closed-form oracle


def gbm_oracle(mu=0.05, sigma=0.2):
    """Scalar geometric Brownian motion with a known pathwise solution."""
    if not np.hypot(mu, sigma) < 1.3e154:  # so mu^2 + sigma^2 is finite
        raise SpecError("gbm_oracle needs mu^2 + sigma^2 finite, got mu=%g, "
                        "sigma=%g" % (mu, sigma))

    def drift_many(t, x):
        return mu * x

    def diffusion_dw(t, x, dw):
        return sigma * x * dw

    model = SdeModel(
        name="gbm_oracle",
        d=1,
        m=1,
        drift_many=drift_many,
        diffusion_dw=diffusion_dw,
        a_mat=lambda t: np.array([[mu]]),
        sigma_b_lower=None,
        c_lgb=mu ** 2 + sigma ** 2,
        description="scalar geometric Brownian motion, exact solution known",
    )
    def sampler(seed, m_paths):
        """X(0) = 1"""
        return np.ones((1, m_paths))

    model.mu = mu
    model.sigma = sigma
    return model, sampler


def gbm_exact_value(mu, sigma, t, w):
    """Exact GBM value exp((mu - sigma^2/2) t + sigma w) at time t on
    paths whose Brownian motion is at w there."""
    return np.exp((mu - 0.5 * sigma ** 2) * t + sigma * w)


# ---------------------------------------------------------------------------
# registry

MODEL_BUILDERS = {builder.__name__: builder for builder in (
    toy_example_1, toy_example_2, toy_example_3, stability_model, sadr_model,
    laplacian_model, gbm_oracle)}


def build_model(name, overrides=None):
    """(model, law) of a registered model by name, with overrides cast to
    the type of the builder's default for that keyword."""
    if name not in MODEL_BUILDERS:
        raise SpecError(
            "unknown model %r (known: %s)" % (name, ", ".join(sorted(MODEL_BUILDERS)))
        )
    builder = MODEL_BUILDERS[name]
    params = inspect.signature(builder).parameters
    kwargs = {}
    for key, value in (overrides or {}).items():
        if key not in params:
            raise SpecError("model %s does not accept override %r" % (name, key))
        cast = type(params[key].default)
        try:
            kwargs[key] = cast(value)
        except (TypeError, ValueError):
            raise SpecError("model %s override %s: expected %s, got %r"
                            % (name, key, cast.__name__, value))
        if cast is float and not np.isfinite(kwargs[key]):
            raise SpecError("model %s override %s: expected a finite "
                            "number, got %r" % (name, key, value))
    return builder(**kwargs)
