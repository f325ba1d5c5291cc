package hwsim

// FetchProbes is how often the core has probed its L1I since the last
// ResetMemorySystem (modulo 2^32). A replayed slice probes nothing, so
// a run that leaves it where it was was replayed.
func FetchProbes(c *CPU) uint32 { return c.l1i.clock }
