package optimizer

import "dyno/internal/plan"

// joinsOf returns all Join nodes of the tree in post-order.
func joinsOf(n plan.Node) []*plan.Join {
	j, ok := n.(*plan.Join)
	if !ok {
		return nil
	}
	return append(append(joinsOf(j.Left), joinsOf(j.Right)...), j)
}

// scansOf returns all Scan nodes of the tree in left-to-right order.
func scansOf(n plan.Node) []*plan.Scan {
	if j, ok := n.(*plan.Join); ok {
		return append(scansOf(j.Left), scansOf(j.Right)...)
	}
	return []*plan.Scan{n.(*plan.Scan)}
}

// isLeftDeep reports whether every join's right input is a scan.
func isLeftDeep(n plan.Node) bool {
	j, ok := n.(*plan.Join)
	if !ok {
		return true
	}
	_, scan := j.Right.(*plan.Scan)
	return scan && isLeftDeep(j.Left)
}
