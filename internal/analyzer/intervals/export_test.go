package intervals

// Test-only access to the per-cell domains projectBox bounds.
var CellDomains = cellDomains

const BoxCells = boxCells
