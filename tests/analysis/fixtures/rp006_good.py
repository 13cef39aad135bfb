"""RP006 fixture: batch state access and per-entity calls outside loops."""


def advance(store, ids, hidden, cell, last_times):
    store.scatter(ids, hidden, cell, last_times)


def update(self, entity_id, hidden):
    state = self.backend.get(entity_id)
    self.put_state(entity_id, hidden, None, 1.0)
    return state


def by_shard(shards, groups):
    return [shards[index].backend.gather(ids) for index, ids in groups]


def warm(cache, ids, rows):
    for entity_id, row in zip(ids, rows):
        cache.put(entity_id, row)


def first_known(store, ids):
    for entity_id in store.state_of(ids[0]) or ():
        return entity_id
