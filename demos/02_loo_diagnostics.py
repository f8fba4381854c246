"""Leave-one-out diagnostics without refitting.

The closed-form LOO identities deliver all n held-out means and variances
from one factorization.  This script verifies them against literal refits
on a small dataset, then looks at the coverage diagnostics they drive.
"""

import numpy as np

from gpcal import (
    Dataset,
    KernelFamily,
    KernelSpec,
    SmoothingParams,
    TrendSpec,
    fit_gp,
    loo_coverage,
    loo_mse,
    predict,
    virtual_loo,
)
from gpcal.loo import psi_from_residuals, psi_smoothed_from_residuals

rng = np.random.default_rng(1)
n, d = 25, 2
X = rng.uniform(0.0, 1.0, (n, d))
y = np.sin(5.0 * X[:, 0]) * np.cos(3.0 * X[:, 1]) \
    + 0.1 * rng.standard_normal(n)
train = Dataset(X=X, y=y)
trend = TrendSpec.from_string("ordinary")
kernel = KernelSpec(KernelFamily.MATERN32, sigma2=0.5,
                    theta=np.array([0.3, 0.3]), nugget=0.01)
model = fit_gp(train, kernel, trend)

# Closed-form LOO vs. n explicit refits.
diag = virtual_loo(model)
worst = 0.0
for i in range(n):
    keep = np.arange(n) != i
    sub = fit_gp(Dataset(X=X[keep], y=y[keep]), kernel, trend)
    mean_i, var_i = predict(sub, X[i])
    worst = max(worst,
                abs(mean_i - diag.loo_mean[i]),
                abs(var_i - diag.loo_var[i]))
print(f"largest closed-form vs refit discrepancy: {worst:.2e}")

print(f"LOO mean squared error: {loo_mse(model):.4f}")
print(f"LOO coverage at 90%:     {loo_coverage(model, alpha=0.1):.3f}")

# The quasi-Gaussian proportion counts standardized residuals below a
# normal quantile; its smoothed variant is continuous in the amplitude.
for a in (0.95, 0.05):
    raw = psi_from_residuals(diag.std_resid, a)
    smooth = psi_smoothed_from_residuals(diag.std_resid, a,
                                         SmoothingParams(0.01))
    print(f"proportion at a={a:.2f}: raw {raw:.3f}, smoothed {smooth:.3f}")
