package interp

// Routing reports whether m runs the hooked handler table, and whether
// every method table m has cached, of either kind, is the shared table of
// that kind.
func Routing(m *Machine) (hooked, consistent bool) {
	other := plainTab
	if m.kind == plainTab {
		other = hookedTab
	}
	consistent = true
	for kind, tabs := range map[tabKind][][]dinstr{m.kind: m.tabs, other: m.spare} {
		for _, tab := range tabs {
			if len(tab) == 0 {
				continue
			}
			shared := sharedTab(m.Prog, tab[0].in.Method, kind)
			if &shared.tab[0] != &tab[0] {
				consistent = false
			}
		}
	}
	return m.kind == hookedTab, consistent
}
