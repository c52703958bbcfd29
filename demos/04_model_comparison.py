#!/usr/bin/env python3
# Head-to-head comparison of all six regularization schemes on one cohort
# bundle: consistency, AUC, sparsity, and SNR certification in one table.
#
# This is the full experiment at reduced size (B=12 bootstraps); expect a
# couple of minutes.  The acceptance suite runs the same comparison at B=50.

import dataclasses
import time
from pathlib import Path

from stablepred import DEFAULT_SPEC, HyperParams, acceptance_configs, compare_models, write_bundle

out = Path("demo_output/comparison")
write_bundle(DEFAULT_SPEC, out)

# the acceptance configs at reduced size, with elastic-net beside lasso
acceptance = acceptance_configs(out)
optimizer = dataclasses.replace(acceptance["lasso"].optimizer, max_iters=1500)
configs = [dataclasses.replace(cfg, optimizer=optimizer, n_bootstraps=12, k_list=(10, 20, 40))
           for cfg in acceptance.values()]
configs.insert(1, dataclasses.replace(configs[0], model="elastic-net",
                                      hyperparams=HyperParams(alpha=0.01, lambda_en=0.3)))

start = time.time()
reports = compare_models(configs, output_dir=out)
print(f"ran {len(reports)} experiments in {time.time()-start:.0f}s; "
      f"table written to {out / 'comparison.csv'}\n")

header = f"{'model':<28} {'ci@10':>7} {'ci@20':>7} {'ci@40':>7} {'auc':>6} {'sel%':>6} {'snr':>4}"
print(header)
print("-" * len(header))
for r in reports:
    print(f"{r.model:<28} {r.mean_ci_at(10):7.4f} {r.mean_ci_at(20):7.4f} "
          f"{r.mean_ci_at(40):7.4f} {r.validation_auc:6.3f} "
          f"{100*r.selected_fraction:6.1f} {r.snr_above_count:4d}")

print("\nHigher consistency = the same features keep being selected across")
print("resamples.  The autoencoder-regularized models hold or beat the lasso")
print("baseline, and augmenting unlabeled data stabilizes them further.")
