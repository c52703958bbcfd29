#!/usr/bin/env python3
# Tour of the objective zoo: the linear losses, the factorized predictor,
# and the jointly regularized loss, with a numerical gradient spot-check.
# Each builder returns value_and_grad(vec) -> (loss, grad) over a flat vector.

from dataclasses import replace

import numpy as np

from stablepred import (
    FactorizedParams,
    FeatureGraph,
    HyperParams,
    LinearParams,
    build_laplacian,
    make_dataset,
)
from stablepred.objectives import autoencoder_objective, joint_objective, linear_objective

rng = np.random.default_rng(0)

# a small labeled cohort: 30 samples, 8 features
X = rng.standard_normal((30, 8))
y = np.where(X[:, 0] + X[:, 1] + 0.5 * rng.standard_normal(30) > 0, 1.0, -1.0)
d = make_dataset(X, y=y)

theta = rng.standard_normal(8) * 0.3
p_lin = LinearParams(theta=theta, bias=0.1)
h = HyperParams(alpha=0.05, lambda_en=0.5, lambda_fg=0.4, lambda_ae=2.0,
                lambda_l2=0.01, hidden_units=3, l1_epsilon=1e-8)
no_penalty = HyperParams(alpha=0.0)  # every penalty weight 0: the logistic loss alone

print("-- linear objectives --")
logistic = linear_objective(d, no_penalty)
print(f"logistic loss      : {logistic(p_lin.to_vector())[0]:.4f}")
lasso = linear_objective(d, replace(h, lambda_en=1.0))
print(f"lasso objective    : {lasso(p_lin.to_vector())[0]:.4f}")
elastic_net = linear_objective(d, h)
print(f"elastic net        : {elastic_net(p_lin.to_vector())[0]:.4f}")

# a feature graph linking the first three features into a triangle; its term
# is what the Laplacian adds to the elastic-net objective
graph = FeatureGraph(edges=(("f0", "f1", 1.0), ("f1", "f2", 1.0), ("f0", "f2", 1.0)))
lap = build_laplacian(graph, d.feature_names)
with_graph = linear_objective(d, h, lap)


def graph_term(vec):
    return with_graph(vec)[0] - elastic_net(vec)[0]


print(f"graph penalty      : {graph_term(p_lin.to_vector()):.4f}")
print("  (zero when linked weights agree:",
      f"{graph_term(LinearParams(theta=np.ones(8)).to_vector()):.4f})")

# the factorized predictor: theta = W^T u with W shared with an autoencoder
p_fac = FactorizedParams(
    u=rng.standard_normal(3) * 0.5,
    W=rng.standard_normal((3, 8)) * 0.4,
    V=rng.standard_normal((8, 3)) * 0.4,
    b_W=np.zeros(3),
    b_V=np.zeros(8),
    bias=0.0,
)
vec = p_fac.to_vector()
print("\n-- factorized objectives --")
print(f"factorized logistic: {joint_objective(d, None, no_penalty)(vec)[0]:.4f}")
linear_at_theta = logistic(np.append(p_fac.effective_theta(), p_fac.bias))[0]
print(f"same, via W^T u    : {linear_at_theta:.4f}  (identical by construction)")
print(f"reconstruction loss: {autoencoder_objective(d.X)(vec)[0]:.4f}")
joint = joint_objective(d, None, h, lap)
loss, grad = joint(vec)
print(f"joint objective    : {loss:.4f}")

# spot-check one analytic partial derivative against central differences;
# u[0] is the first entry of the flat vector
step = 1e-6
bump = np.eye(vec.size)[0] * step
numeric = (joint(vec + bump)[0] - joint(vec - bump)[0]) / (2 * step)
print("\n-- gradient spot-check (du[0]) --")
print(f"analytic {p_fac.with_vector(grad).u[0]:+.8f}   numeric {numeric:+.8f}")
