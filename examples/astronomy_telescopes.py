"""Astronomy scenario: telescopes streaming detections to a central site.

The paper's introduction motivates DBDC with space telescopes that each
"collect 1GB of data per hour" — far too much to centralize.  This example
simulates that setting end to end:

* three observatories each observe (different random subsets of) the same
  sky and cluster their detections locally,
* only the tiny local models travel over a simulated WAN link,
* the server builds the global model **incrementally** as models arrive
  (the §6 extension: "we do not have to wait for all clients"): each
  arrival is one round of the server's round protocol, and every commit
  folds it into the global model,
* the final broadcast lets each observatory tag its detections with global
  source ids.

Usage::

    python examples/astronomy_telescopes.py
"""

from __future__ import annotations

import numpy as np

from repro.data.generators import gaussian_blobs, uniform_noise
from repro.distributed import (
    ClientSite,
    LinkSpec,
    RoundCore,
    SimulatedNetwork,
)
from repro.distributed.network import SERVER

EPS_LOCAL = 0.9
MIN_PTS = 5
N_SOURCES = 6


def make_sky(seed: int = 0) -> np.ndarray:
    """The 'true sky': six stellar sources plus background events."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(5, 95, size=(N_SOURCES, 2))
    sources, __ = gaussian_blobs([400] * N_SOURCES, centers, 1.0, seed=rng)
    background = uniform_noise(300, (0.0, 100.0), dim=2, seed=rng)
    return np.concatenate([sources, background])


def main() -> None:
    sky = make_sky()
    rng = np.random.default_rng(1)
    # Each telescope detects a random ~1/3 of all events (overlapping
    # fields of view are fine: DBDC never assumes disjoint data).
    observatories = []
    for site_id, name in enumerate(["Chile", "Hawaii", "Canary Islands"]):
        mask = rng.random(sky.shape[0]) < 0.34
        observatories.append(
            (
                name,
                ClientSite(
                    site_id,
                    sky[mask],
                    eps_local=EPS_LOCAL,
                    min_pts_local=MIN_PTS,
                    scheme="rep_scor",
                ),
            )
        )

    network = SimulatedNetwork(LinkSpec(bandwidth_bytes_per_s=1.25e6, latency_s=0.12))
    # A streaming server cannot wait for every model to derive the merge
    # radius, so it is fixed up front (the paper's observed default).
    server = RoundCore(eps_global=2 * EPS_LOCAL)

    print("== local clustering and streaming model upload ==")
    for round_index, (name, site) in enumerate(observatories):
        model = site.run_local_clustering()
        message = network.send(site.site_id, SERVER, "local_model", model.to_bytes())
        server.apply(server.open_round(round_index))
        server.apply(server.arrive(model))
        snapshot = server.apply(server.commit_round(round_index))
        print(
            f"{name:15s}: {site.points.shape[0]:5d} detections → "
            f"{len(model):3d} representatives ({message.n_bytes} bytes, "
            f"{message.sim_seconds * 1000:.0f} ms) | global model now has "
            f"{snapshot.n_global_clusters} clusters from "
            f"{len(snapshot)} representatives"
        )

    global_model = server.committed
    print("\n== broadcast and relabeling ==")
    payload = global_model.to_bytes()
    for name, site in observatories:
        network.send(SERVER, site.site_id, "global_model", payload)
        stats = site.receive_global_model(global_model)
        print(
            f"{name:15s}: {stats.n_noise_promoted} background events joined "
            f"a source, {stats.n_still_noise} remain background"
        )

    # What did we save versus shipping every detection to the server?
    stats = network.stats()
    raw_bytes, raw_seconds = network.raw_data_cost(sky.shape[0], 2)
    print("\n== transmission ==")
    print(f"model traffic: {stats.bytes_total} bytes "
          f"({stats.sim_seconds_total:.2f} s simulated)")
    print(f"raw-data baseline: {raw_bytes} bytes ({raw_seconds:.2f} s simulated)")
    print(f"volume saving: {100 * (1 - stats.bytes_upstream / raw_bytes):.1f}%")

    # Server-side catalogue query (§7): which site sees source 0?
    print("\n== membership queries ==")
    source = int(global_model.global_labels[0])
    for name, site in observatories:
        count = site.objects_of_global_cluster(source).shape[0]
        print(f"{name:15s}: {count} detections of global source {source}")


if __name__ == "__main__":
    main()
