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
