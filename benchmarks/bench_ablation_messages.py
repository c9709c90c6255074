"""§2.4 ablation: control-message scaling.

The paper argues broadcast messaging scales with (load x servers x
clients) while random polling scales with (load x poll size) only —
i.e. broadcast fan-out grows with the client population while polling
cost per request is constant.
"""

from benchmarks.conftest import run_once, scaled
from repro.experiments.figures import message_scaling_spec


def test_message_scaling(benchmark, report):
    figure = run_once(
        benchmark,
        lambda: message_scaling_spec(
            client_counts=(2, 4, 6),
            n_requests=scaled(10_000),
            seed=0,
        ).run(),
    )
    report("ablation_messages", figure.render())

    rows = {(r["n_clients"], r["policy"]): r for r in figure.table.rows}
    broadcast_2 = rows[(2, "broadcast")]["control_messages_per_request"]
    broadcast_6 = rows[(6, "broadcast")]["control_messages_per_request"]
    polling_2 = rows[(2, "polling")]["control_messages_per_request"]
    polling_6 = rows[(6, "polling")]["control_messages_per_request"]

    # Broadcast control traffic scales ~linearly with client count.
    assert broadcast_6 > 2.5 * broadcast_2
    # Polling cost per request is exactly 2*d regardless of clients.
    assert abs(polling_2 - polling_6) < 0.01
    assert abs(polling_2 - 4.0) < 0.01  # d=2 -> 2 polls + 2 replies
