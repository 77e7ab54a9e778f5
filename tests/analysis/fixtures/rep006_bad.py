"""REP006 fixture: flip-delta repatching inside event loops."""


def replay(state, patcher, graph, batches):
    for events in batches:
        graph, _ = graph.apply_updates(events)
        model = patcher.update(graph)
        state.repatch(model)
    return state.energy


def drain(state, queue):
    while queue:
        model = queue.pop()
        state.repatch(model, rows=None)
    return state
