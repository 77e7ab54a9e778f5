"""REP006 fixture: per-batch repatch helper (clean)."""


def advance(state, patcher, graph):
    # The repro.api.stream pattern: the event loop calls this helper,
    # so each batch pays exactly one visible re-materialisation.
    model = patcher.update(graph)
    state.repatch(model)
    return model


def replay(state, patcher, graph, batches):
    for events in batches:
        graph, _ = graph.apply_updates(events)
        advance(state, patcher, graph)
    return state.energy


def one_shot(state, model):
    # Outside any loop the mat-vec is legitimate.
    state.repatch(model)
    return state
