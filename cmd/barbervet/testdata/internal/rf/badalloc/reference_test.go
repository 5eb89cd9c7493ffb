// reference_test.go proves R010 skips test files: a naive oracle engine kept
// in a test file may allocate inside its recursion.
package badalloc

func refGrow(ys []float64, depth int) *node {
	vals := make([]float64, len(ys)) // exempt: test files are outside R010
	if depth == 0 {
		return &node{vals: vals}
	}
	mid := len(ys) / 2
	return &node{left: refGrow(ys[:mid], depth-1), right: refGrow(ys[mid:], depth-1)}
}
