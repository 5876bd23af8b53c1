int g0;
int g1;
int g2;
int arr0[8];
double d0;

int f2(int p0, int p1)
{
    register int i;
    int j;
    int x;
    int y;
    int z;
    char c;
    return 0;
}

int f3(int p0, int p1)
{
    register int i;
    int j;
    int x;
    int y;
    int z;
    char c;
    x = f2(g0, 67);
    x = ((0 + (27 * (94 + (p1 + p0)))) - (0 ? 42 : 13));
    return x;
}
