"""RP006 fixture: per-entity state calls repeated in loops (four flagged)."""


def advance(store, ids, states):
    for entity_id in ids:
        store.put_state(entity_id, states[entity_id], None, 1.0)


def read(self, ids):
    return [self.backend.get(entity_id) for entity_id in ids]


def drain(shard, queue, hidden):
    while queue:
        shard.backend.put(queue.pop(), hidden, None, 0.0)


def stale(state_of, ids):
    return {entity_id: state_of(entity_id) for entity_id in ids}
