package interp

// Routing reports whether m runs the profiled handler table, and whether
// every method table m has cached is the shared table of the kind it runs.
func Routing(m *Machine) (profiled, consistent bool) {
	consistent = true
	for _, tab := range m.tabs {
		if len(tab) == 0 {
			continue
		}
		shared := sharedTab(m.Prog, tab[0].in.Method, m.kind)
		if &shared.tab[0] != &tab[0] {
			consistent = false
		}
	}
	return m.hooks != nil, consistent
}
