#!/usr/bin/env python3
# Generate a correlated synthetic cohort, inspect its group structure, and
# write the CSV/TSV bundle the experiment runner consumes.

from pathlib import Path

import numpy as np

from stablepred import DEFAULT_SPEC, generate, make_group_graph, write_bundle

spec = DEFAULT_SPEC
print(f"spec: M={spec.n_samples}, {spec.n_groups} groups x {spec.group_size} features, "
      f"noise={spec.within_group_noise}, {spec.n_informative_groups} informative groups")

train = generate(spec)
print(f"generated {train.n_samples} x {train.n_features}, labels balance: "
      f"{np.mean(train.y > 0):.2f} positive")

# features inside a group are one latent factor plus noise, so they are
# strongly correlated; across groups they are nearly independent
g = spec.group_size
first_group = train.X[:, :g]
corr = np.corrcoef(first_group, rowvar=False)
upper = corr[np.triu_indices(g, k=1)]
print(f"within-group correlation : {upper.mean():.3f} "
      f"(population value 1/(1+noise^2) = {1/(1+spec.within_group_noise**2):.3f})")
cross = np.corrcoef(train.X[:, 0], train.X[:, g])[0, 1]
print(f"cross-group correlation  : {cross:+.3f}")

# the matching clique graph ties each group's features together
graph = make_group_graph(spec)
print(f"group graph: {len(graph.edges)} edges "
      f"({spec.n_groups} cliques of C({g},2) = {g*(g-1)//2})")

out = Path("demo_output/cohorts")
write_bundle(spec, out)
print(f"wrote train/validation/augment CSVs and graph.tsv under {out}/")
print("(the same bundle is produced by: stablepred gen-synthetic --spec spec.json --out DIR)")
