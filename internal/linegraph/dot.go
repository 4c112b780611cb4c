package linegraph

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders a homologous subgraph in Graphviz DOT form: the
// homologous centre node linked to each member claim, plus the complete
// line-graph adjacency between members (the Fig. 4 picture). It is a
// debugging and documentation aid; `multirag -demo` corpora stay small
// enough to render directly.
func (sg *SG) WriteDOT(w io.Writer, n *HomologousNode) error {
	if n == nil {
		return fmt.Errorf("linegraph: WriteDOT on nil node")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "graph homologous {\n")
	fmt.Fprintf(&b, "  label=%q;\n", n.SubjectID+" / "+n.Name)
	fmt.Fprintf(&b, "  snode [shape=doublecircle,label=%q];\n",
		fmt.Sprintf("%s\\nnum=%d", n.Name, n.Num))
	members := sg.MemberTriples(n)
	for _, t := range members {
		fmt.Fprintf(&b, "  %s [shape=box,label=%q];\n",
			dotID(t.ID), fmt.Sprintf("%s\\n%s w=%.2f", t.Object, t.Source, t.Weight))
		fmt.Fprintf(&b, "  snode -- %s [label=%q];\n",
			dotID(t.ID), fmt.Sprintf("w=%.2f", t.Weight))
	}
	// Complete line-graph edges between members (pairwise homologous).
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			fmt.Fprintf(&b, "  %s -- %s [style=dashed];\n",
				dotID(members[i].ID), dotID(members[j].ID))
		}
	}
	fmt.Fprintf(&b, "}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func dotID(id string) string {
	return "n_" + strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r >= 'A' && r <= 'Z' {
			return r
		}
		return '_'
	}, id)
}
