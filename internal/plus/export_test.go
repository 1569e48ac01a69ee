package plus

// AppendLineageBody exposes the lineage body encoder to the external test
// package, whose tests build their graphs with internal/workload.
var AppendLineageBody = appendLineageBody

// EndpointsOf lists the endpoints mounted on s, pattern by pattern in
// mount order, so the route-table test walks the server's own table.
func EndpointsOf(s *Server) []Endpoint {
	var eps []Endpoint
	for _, rt := range s.routes {
		eps = append(eps, rt.endpoints...)
	}
	return eps
}

// The two caller requirements that are not a capability.
const (
	NeedAnyone       = anyone
	NeedAnyPrincipal = anyPrincipal
)

// StoredFeatureMaps returns every feature map sn's records hold as the
// store keeps them, keyed "object <id>" and "surrogate <id> of <for>";
// records stored without features hold none and are left out.
func StoredFeatureMaps(sn *Snapshot) map[string]map[string]string {
	out := map[string]map[string]string{}
	for _, b := range sn.at {
		for id, o := range b.objects {
			if o.Features != nil {
				out["object "+id] = o.Features
			}
		}
		for id, ss := range b.surrogates {
			for _, sp := range ss {
				if sp.Features != nil {
					out["surrogate "+sp.ID+" of "+id] = sp.Features
				}
			}
		}
	}
	return out
}
