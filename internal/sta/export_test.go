package sta

// AnalyzeReference runs the every-gate reference walk (reference_test.go),
// the schedule the kernel oracles hold the propagation walk to.
var AnalyzeReference = (*Circuit).analyzeReference
