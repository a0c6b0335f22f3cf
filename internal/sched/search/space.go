package search

// Axis returns the candidate tile sizes along one axis of extent dim,
// ascending: powers of two up to dim, the PE-array width, and dim
// itself.
func Axis(dim, array int) []int { return AppendAxis(nil, dim, array) }

// AppendAxis is Axis writing into dst (which may be a reused scratch
// slice), so steady-state space construction allocates nothing once the
// scratch has grown to size. The output is identical to Axis: the
// sorted deduplicated union of the powers of two below dim, the array
// width (when it fits), and dim itself.
func AppendAxis(dst []int, dim, array int) []int {
	start := len(dst)
	// Powers of two below dim arrive already ascending and distinct.
	for v := 1; v < dim; v *= 2 {
		dst = append(dst, v)
	}
	dst = insertSorted(dst, start, dim)
	if array <= dim {
		dst = insertSorted(dst, start, array)
	}
	return dst
}

// insertSorted inserts v into the ascending run dst[start:], keeping it
// sorted and deduplicated.
func insertSorted(dst []int, start, v int) []int {
	i := start
	for i < len(dst) && dst[i] < v {
		i++
	}
	if i < len(dst) && dst[i] == v {
		return dst
	}
	dst = append(dst, 0)
	copy(dst[i+1:], dst[i:])
	dst[i] = v
	return dst
}
