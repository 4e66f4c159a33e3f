#!/usr/bin/env python3
"""A remote server over TCP, and the three data-transfer options of Figure 2.

The paper's settings dialog lets the developer pick, per debug run:

* **compression** — "leading to faster transfer times",
* **a uniform random sample** of the input data — "this will alleviate the
  data transfer overhead",
* **encryption** with the database user's password — for sensitive data.

This example starts the demo database as a real TCP server, connects the
plugin to it through the client protocol (the JDBC stand-in), and extracts the
same UDF input under the four configurations, printing the bytes that crossed
the wire for each.  It finishes by showing that a 10% sample is still enough
to expose the Scenario A bug in the debugger.

Run with:  python examples/remote_transfer_options.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core import DevUDFPlugin, DevUDFProject, DevUDFSettings
from repro.netproto import AsyncSocketServer
from repro.workloads import demo_server


def extract_with(plugin: DevUDFPlugin, label: str, **transfer_kwargs) -> int:
    """Reconfigure the transfer options and run one extraction; returns wire bytes."""
    plugin.configure(**transfer_kwargs)
    preparation = plugin.prepare_debug("mean_deviation")
    wire = preparation.inputs.wire_bytes
    print(f"  {label:<38} rows={preparation.inputs.rows_extracted:>5}  "
          f"wire bytes={wire:>8}  input.bin={preparation.blob_stats.stored_bytes:>7}")
    return wire


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="devudf_remote_"))
    print(f"working directory: {workdir}\n")

    # ------------------------------------------------------------------ #
    # a real TCP server (the paper's "running database server")
    # ------------------------------------------------------------------ #
    server, setup = demo_server(str(workdir / "csv"), buggy_mean_deviation=True,
                                n_files=8, rows_per_file=500)
    socket_server = AsyncSocketServer(server, host="127.0.0.1", port=0)
    host, port = socket_server.start_background()
    print(f"demo server listening on {host}:{port}")
    print(f"data: {setup.workload.total_rows} rows across "
          f"{len(setup.workload.files)} CSV files\n")

    try:
        settings = DevUDFSettings(
            host=host, port=port, database="demo",
            username="monetdb", password="monetdb",
            debug_query="SELECT mean_deviation(i) FROM numbers",
        )
        project = DevUDFProject(workdir / "ide_project")
        plugin = DevUDFPlugin(project, settings)  # no in-process server: TCP only
        plugin.import_udfs(["mean_deviation"])

        print("input-data extraction under the Figure 2 transfer options:")
        baseline = extract_with(plugin, "no options (baseline)",
                                use_compression=False, use_encryption=False,
                                use_sampling=False)
        compressed = extract_with(plugin, "compression (zlib)",
                                  use_compression=True, compression_codec="zlib",
                                  use_encryption=False, use_sampling=False)
        encrypted = extract_with(plugin, "compression + encryption",
                                 use_compression=True, use_encryption=True,
                                 use_sampling=False)
        sampled = extract_with(plugin, "10% uniform random sample",
                               use_compression=False, use_encryption=False,
                               use_sampling=True, sample_fraction=0.1,
                               sample_size=None)
        print()
        print(f"compression saved {100 * (1 - compressed / baseline):.1f}% of the "
              "bytes on the wire")
        print(f"encryption overhead vs compressed: {encrypted - compressed:+d} bytes")
        print(f"sampling reduced the transfer to {100 * sampled / baseline:.1f}% "
              "of the baseline\n")

        # the sampled input is still enough to see the Scenario A bug locally
        plugin.configure(use_compression=False, use_encryption=False,
                         use_sampling=True, sample_fraction=0.1, sample_size=None)
        preparation = plugin.prepare_debug("mean_deviation")
        source = project.udf_source("mean_deviation")
        breakpoint_line = next(
            number for number, line in enumerate(source.splitlines(), start=1)
            if "distance += column[i] - mean" in line
        )
        outcome = plugin.debug_udf(preparation=preparation,
                                   breakpoints=[breakpoint_line],
                                   watches={"distance": "distance"})
        negative = any(
            isinstance(stop.watches.get("distance"), (int, float))
            and stop.watches["distance"] < 0
            for stop in outcome.stops
        )
        print(f"debugging on the 10% sample still exposes the bug: {negative}")
        plugin.close()
    finally:
        socket_server.stop()
    print("\nremote example finished.")


if __name__ == "__main__":
    main()
