// The benchmark is a module of its own so it builds from its own
// directory; the module path sits under granulock/ so it may import the
// repository's internal packages through the replace below.
module granulock/benchmark

go 1.22

require granulock v0.0.0

replace granulock => ../
