int g0;
int g2;
int arr0[16];

int f1(int p0, int p1)
{
    register int i;
    int j;
    int z;
    z = 0;
    {
        i = 0;
        {
            {
                j = 0;
                {
                    arr0[i] = ((j << 5) & (((g0 & g2) | (z - z)) - ((p0 * 21) & (83 % 10))));
                }
            }
        }
    }
    return 0;
}
