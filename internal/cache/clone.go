package cache

// Clone returns an independent deep copy of the storage array: same
// tags, states, recency, and statistics, in the same flat
// struct-of-arrays layout New builds. The metrics mirror is NOT copied
// — the owner of the clone rewires its own.
func (c *Cache) Clone() *Cache {
	return &Cache{
		geom:    c.geom,
		repl:    c.repl,
		ways:    c.ways,
		tags:    append([]uint64(nil), c.tags...),
		states:  append([]uint8(nil), c.states...),
		lastUse: append([]uint64(nil), c.lastUse...),
		rrpvs:   append([]uint8(nil), c.rrpvs...),
		fill:    append([]int32(nil), c.fill...),
		tick:    c.tick,
		Stats:   c.Stats,
	}
}
