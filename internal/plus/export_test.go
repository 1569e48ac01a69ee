package plus

// AppendLineageBody exposes the lineage body encoder to the external test
// package, whose tests build their graphs with internal/workload.
var AppendLineageBody = appendLineageBody
