package par

// CName exposes the generator's identifier sanitizing to black-box
// tests.
var CName = cName
